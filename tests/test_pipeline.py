"""End-to-end command tests on a miniature world.

One module-scoped run of prepare -> train -> detect -> repair -> eval
backs the read-only assertions; determinism and failure-path tests
rerun individual commands against the same artifacts.
"""
from __future__ import annotations

import json
import logging
import re
import shutil
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import pasdf.bench as bench_module
import pasdf.pipeline as pipeline_module
import pasdf.queries as queries_module
import pasdf.repair as repair_module
import pasdf.scoring as scoring_module
from oracles import UNUSABLE_CLOUDS, save_config, write_ascii_ply
from pasdf.bench import AnomalySpec, ShapeSpec, generate_shape, inject_anomaly, run_bench
from pasdf.cli import EXIT_INPUT, main
from pasdf.config import (
    BenchConfig,
    GridConfig,
    IoConfig,
    RunConfig,
)
from pasdf.errors import (
    CheckpointMismatchError,
    InvalidInputError,
    RepairFailedError,
)
from pasdf.geometry import PointCloud, apply_transform, chamfer_metric, random_rigid
from pasdf.mesh import sample_surface
from pasdf.meshio import read_ply, read_record, write_cloud_ply
from pasdf.network import NetworkConfig
from pasdf.pipeline import (
    RESULTS_FILE,
    DetectCase,
    RepairCase,
    cmd_detect,
    cmd_eval,
    cmd_prepare,
    cmd_repair,
    cmd_train,
)
from pasdf.queries import QueryCounts, read_samples
from pasdf.registration import pose_align
from pasdf.rng import stream
from pasdf.scoring import auroc, pooled_auroc
from pasdf.training import TrainConfig


def small_config(root: Path) -> RunConfig:
    return RunConfig(
        seed=5,
        io=IoConfig(
            train_dir=str(root / "train"),
            test_dir=str(root / "test"),
            out_dir=str(root / "out"),
            labels=str(root / "labels.json"),
        ),
        counts=QueryCounts(surface=800, volume=800, bbox=600),
        network=NetworkConfig(input_dim=39, hidden_width=32),
        training=TrainConfig(
            learning_rate=1e-3, epochs=250, batch_size=512, clamp_targets=True
        ),
        grid=GridConfig(resolution=64),
    )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Sphere world: one training cloud, one normal and one dented test case."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "train").mkdir()
    (root / "test").mkdir()
    mesh = generate_shape(ShapeSpec(kind="sphere"), seed=0)

    train_cloud = sample_surface(mesh, 1200, seed=21)
    write_cloud_ply(root / "train" / "model-a.ply", train_cloud)

    normal = sample_surface(mesh, 1024, seed=22)
    write_cloud_ply(root / "test" / "normal.ply", normal)

    base = sample_surface(mesh, 1024, seed=23)
    spec = AnomalySpec(
        kind="dent",
        center=tuple(float(v) for v in base.points[7]),
        radius=0.3,
        magnitude=0.12,
    )
    dented_cloud, labels = inject_anomaly(base, spec, seed=24)
    # No normals on purpose: detection must cope with bare xyz input.
    write_cloud_ply(root / "test" / "dented.ply", PointCloud(dented_cloud.points, None))

    reference = sample_surface(mesh, 1024, seed=25)
    write_cloud_ply(root / "reference.ply", reference)
    manifest = {
        "cases": {
            "normal": {"object": 0},
            "dented": {
                "object": 1,
                "anomalous_points": [int(i) for i in np.flatnonzero(labels)],
                "reference": "reference.ply",
            },
        }
    }
    with open(root / "labels.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    config = small_config(root)
    prepared = cmd_prepare(config)
    trained = cmd_train(config)
    detected = cmd_detect(config)
    repaired = cmd_repair(config)
    evaluated = cmd_eval(config)
    return {
        "root": root,
        "mesh": mesh,
        "config": config,
        "prepared": prepared,
        "trained": trained,
        "detected": detected,
        "repaired": repaired,
        "evaluated": evaluated,
        "reference": reference,
        "dented": dented_cloud,
    }


class TestPrepare:
    def test_single_cloud_record_count(self, world):
        counts = world["config"].counts
        assert world["prepared"].n_records == counts.total == 2200

    def test_sample_file_reads_back(self, world):
        queries, meta = read_samples(world["prepared"].samples_path)
        assert len(queries) == 2200
        assert queries.is_labelled
        assert meta["canonical_id"] == "model-a"
        assert meta["train_ids"] == ["model-a"]

    def test_canonical_cloud_is_the_training_cloud(self, world):
        content = read_ply(world["prepared"].canonical_path)
        original = read_ply(world["root"] / "train" / "model-a.ply")
        np.testing.assert_array_equal(content.points, original.points)

    def test_metadata_file(self, world):
        with open(world["prepared"].metadata_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        assert meta["total_records"] == 2200
        assert meta["record"]["scale"] > 0.0
        assert meta["alignment"] == {}

    def test_rerun_is_byte_identical(self, world):
        samples = world["prepared"].samples_path
        before = samples.read_bytes()
        meta_before = world["prepared"].metadata_path.read_bytes()
        cmd_prepare(world["config"])
        assert samples.read_bytes() == before
        assert world["prepared"].metadata_path.read_bytes() == meta_before

    def test_unknown_canonical_id_rejected(self, world):
        with pytest.raises(InvalidInputError, match="nope"):
            cmd_prepare(world["config"], canonical_id="nope")

    def test_missing_train_dir_names_path(self, world, tmp_path):
        config = replace(
            world["config"],
            io=replace(world["config"].io, train_dir=str(tmp_path / "absent")),
        )
        with pytest.raises(FileNotFoundError, match="absent"):
            cmd_prepare(config)

    def test_empty_train_dir_rejected(self, world, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        config = replace(
            world["config"], io=replace(world["config"].io, train_dir=str(empty))
        )
        with pytest.raises(InvalidInputError, match="no training clouds"):
            cmd_prepare(config)


class TestPreparePooling:
    def test_four_posed_clouds_pool_into_one_frame(self, tmp_path):
        mesh = generate_shape(ShapeSpec(kind="sphere"), seed=0)
        rng = stream(77, "pipeline-pooling")
        (tmp_path / "train").mkdir()
        for index in range(4):
            cloud = sample_surface(mesh, 1200, seed=30 + index)
            if index > 0:
                cloud = apply_transform(random_rigid(rng, translation_scale=0.5), cloud)
            write_cloud_ply(tmp_path / "train" / f"scan-{index}.ply", cloud)
        config = RunConfig(
            seed=9,
            io=IoConfig(
                train_dir=str(tmp_path / "train"),
                test_dir=str(tmp_path / "test"),
                out_dir=str(tmp_path / "out"),
            ),
        )
        prepared = cmd_prepare(config)
        assert prepared.canonical_id == "scan-0"
        assert prepared.train_ids == ("scan-0", "scan-1", "scan-2", "scan-3")
        assert prepared.n_records == 4 * config.counts.total
        queries, meta = read_samples(prepared.samples_path)
        assert len(queries) == 4 * config.counts.total
        assert all(meta["alignment"][f"scan-{i}"]["converged"] for i in (1, 2, 3))
        assert queries.positions.min() >= 0.0
        assert queries.positions.max() <= 1.0

    def test_explicit_canonical_choice(self, tmp_path):
        mesh = generate_shape(ShapeSpec(kind="sphere"), seed=0)
        (tmp_path / "train").mkdir()
        clouds = {}
        for name in ("left", "right"):
            clouds[name] = sample_surface(mesh, 900, seed=40 + len(clouds))
            write_cloud_ply(tmp_path / "train" / f"{name}.ply", clouds[name])
        config = RunConfig(
            seed=9,
            io=IoConfig(
                train_dir=str(tmp_path / "train"),
                test_dir=str(tmp_path / "test"),
                out_dir=str(tmp_path / "out"),
            ),
            counts=QueryCounts(surface=300, volume=300, bbox=200),
        )
        prepared = cmd_prepare(config, canonical_id="right")
        assert prepared.canonical_id == "right"
        content = read_ply(prepared.canonical_path)
        np.testing.assert_array_equal(content.points, clouds["right"].points)


class _Stopped(Exception):
    pass


class TestOneTrainingPath:
    """The bench and ``prepare`` reach labelled samples only through
    ``queries.prepare_samples``, each calling it once."""

    @staticmethod
    def spy(monkeypatch, module) -> list[dict[str, PointCloud]]:
        calls = []
        real = queries_module.prepare_samples

        def prepare_spy(clouds, *args):
            calls.append(clouds)
            return real(clouds, *args)

        def bypass(*args, **kwargs):
            raise AssertionError(f"{module.__name__} drew or labelled queries itself")

        monkeypatch.setattr(module, "prepare_samples", prepare_spy)
        for name in ("sample_queries", "sample_queries_from_cloud", "label_queries"):
            monkeypatch.setattr(module, name, bypass, raising=False)
        return calls

    def test_run_shape_trains_on_one_cloud_with_normals(self, monkeypatch):
        calls = self.spy(monkeypatch, bench_module)

        def stop(*args, **kwargs):
            raise _Stopped

        monkeypatch.setattr(bench_module, "train_model", stop)
        config = RunConfig(counts=QueryCounts(volume=500, bbox=500, surface=500))
        with pytest.raises(_Stopped):
            bench_module.run_shape("torus", config)
        assert len(calls) == 1
        [cloud] = calls[0].values()
        assert cloud.normals is not None

    def test_cmd_prepare_calls_it_once(self, world, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch, pipeline_module)
        cmd_prepare(replace(world["config"], io=replace(world["config"].io, out_dir=str(tmp_path))))
        assert len(calls) == 1
        assert list(calls[0]) == ["model-a"]


class TestTrain:
    def test_checkpoint_and_history_written(self, world):
        assert world["trained"].checkpoint_path.is_file()
        lines = world["trained"].history_path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 250
        assert world["trained"].final_loss < 0.01

    def test_same_seed_byte_identical_checkpoint(self, world):
        checkpoint = world["trained"].checkpoint_path
        before = checkpoint.read_bytes()
        history_before = world["trained"].history_path.read_bytes()
        cmd_train(world["config"])
        assert checkpoint.read_bytes() == before
        assert world["trained"].history_path.read_bytes() == history_before

    def test_zero_epochs_writes_initialized_checkpoint(self, world, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(world["prepared"].samples_path, out / "samples.bin")
        shutil.copy(
            world["prepared"].samples_path.with_suffix(".json"), out / "samples.json"
        )
        config = replace(
            world["config"],
            io=replace(world["config"].io, out_dir=str(out)),
            training=replace(world["config"].training, epochs=0),
        )
        trained = cmd_train(config)
        assert trained.epochs_run == 0
        assert np.isnan(trained.final_loss)
        assert trained.checkpoint_path.is_file()
        assert trained.history_path.read_text() == "epoch,loss\n"

    def test_missing_samples_names_path(self, world, tmp_path):
        config = replace(
            world["config"], io=replace(world["config"].io, out_dir=str(tmp_path))
        )
        with pytest.raises(FileNotFoundError, match="samples.bin"):
            cmd_train(config)

    def test_non_finite_sample_position_exits_with_input_error(self, world, tmp_path, capsys):
        config = _copy_out(world, tmp_path)
        samples = Path(config.io.out_dir) / "samples.bin"
        raw = bytearray(samples.read_bytes())
        raw[8:16] = struct.pack("<d", float("nan"))  # first record's y
        samples.write_bytes(bytes(raw))
        save_config(config, tmp_path / "run.json")
        capsys.readouterr()
        assert main(["train", "--config", str(tmp_path / "run.json")]) == EXIT_INPUT
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {samples}: positions contains non-finite values"]


class TestDetect:
    def test_cases_sorted_and_scored(self, world):
        cases = world["detected"].cases
        assert [case.id for case in cases] == ["dented", "normal"]
        assert all(case.converged for case in cases)
        assert all(case.object_score >= 0.0 for case in cases)

    def test_normal_scores_below_dented(self, world):
        by_id = {case.id: case for case in world["detected"].cases}
        assert by_id["normal"].object_score < by_id["dented"].object_score

    def test_results_json_holds_only_cases(self, world):
        with open(world["detected"].results_path, encoding="utf-8") as fh:
            results = json.load(fh)
        assert list(results) == ["cases"]
        assert [row["id"] for row in results["cases"]] == ["dented", "normal"]

    def test_does_not_read_the_labels_manifest(self, world, tmp_path):
        detect_dir = world["detected"].results_path.parent
        names = [RESULTS_FILE] + [case.score_map for case in world["detected"].cases]
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"cases": {"dented": {"object": 2}}}\n')
        for labels in (malformed, tmp_path / "absent.json"):
            config = _copy_out(world, tmp_path / labels.stem)
            config = replace(config, io=replace(config.io, labels=str(labels)))
            summary = cmd_detect(config)
            for name in names:
                written = summary.results_path.parent / name
                assert written.read_bytes() == (detect_dir / name).read_bytes()

    def test_score_maps_reload_with_scores(self, world):
        for case in world["detected"].cases:
            content = read_ply(world["detected"].results_path.parent / case.score_map)
            assert content.scores is not None
            assert len(content.scores) == case.n_points

    def test_rerun_is_byte_identical(self, world):
        results = world["detected"].results_path
        score_map = results.parent / world["detected"].cases[0].score_map
        before = results.read_bytes()
        map_before = score_map.read_bytes()
        cmd_detect(world["config"])
        assert results.read_bytes() == before
        assert score_map.read_bytes() == map_before

    def test_empty_test_dir_warns_and_writes_empty_results(
        self, world, tmp_path, caplog
    ):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("model.ckpt", "model.json", "prepare.json", "canonical.ply"):
            shutil.copy(Path(world["config"].io.out_dir) / name, out / name)
        empty = tmp_path / "empty"
        empty.mkdir()
        config = replace(
            world["config"],
            io=replace(
                world["config"].io, test_dir=str(empty), out_dir=str(out), labels=None
            ),
        )
        with caplog.at_level(logging.WARNING):
            summary = cmd_detect(config)
        assert summary.cases == ()
        assert "no test clouds" in caplog.text
        with open(summary.results_path, encoding="utf-8") as fh:
            assert json.load(fh)["cases"] == []

    def test_network_mismatch_rejected(self, world):
        config = replace(world["config"], network=NetworkConfig(input_dim=39, hidden_width=64))
        with pytest.raises(CheckpointMismatchError, match="network"):
            cmd_detect(config)

    def test_explicit_missing_input_names_path(self, world, tmp_path):
        ghost = tmp_path / "ghost"
        config = replace(
            world["config"], io=replace(world["config"].io, test_dir=str(ghost))
        )
        with pytest.raises(FileNotFoundError) as raised:
            cmd_detect(config)
        assert str(ghost) in str(raised.value)

    @pytest.mark.parametrize("rows, problem", UNUSABLE_CLOUDS.values(), ids=UNUSABLE_CLOUDS.keys())
    def test_unusable_test_cloud_names_the_file(self, world, tmp_path, capsys, rows, problem):
        config = _copy_out(world, tmp_path)
        (tmp_path / "test").mkdir()
        bad = tmp_path / "test" / "bad.ply"
        write_ascii_ply(bad, rows)
        config = replace(config, io=replace(config.io, test_dir=str(tmp_path / "test")))
        save_config(config, tmp_path / "run.json")
        capsys.readouterr()
        assert main(["detect", "--config", str(tmp_path / "run.json")]) == EXIT_INPUT
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {bad}: {problem}"]


class TestRepair:
    def test_rows_for_both_cases(self, world):
        cases = {case.id: case for case in world["repaired"].cases}
        assert set(cases) == {"dented", "normal"}
        assert not any(case.failed for case in cases.values())

    def test_outputs_exist(self, world):
        repair_dir = world["repaired"].results_path.parent
        for case in world["repaired"].cases:
            assert (repair_dir / case.cloud).is_file()
            assert (repair_dir / case.mesh).is_file()

    def test_repaired_cloud_size(self, world):
        # Repair samples as many points as the input holds.
        repair_dir = world["repaired"].results_path.parent
        case = next(c for c in world["repaired"].cases if c.id == "dented")
        content = read_ply(repair_dir / case.cloud)
        assert len(content.points) == len(world["dented"]) == 1024

    def test_dented_quality_beats_input(self, world):
        case = next(c for c in world["repaired"].cases if c.id == "dented")
        assert case.chamfer is not None and case.emd is not None
        input_chamfer = chamfer_metric(world["dented"], world["reference"])
        assert case.chamfer < input_chamfer

    def test_normal_case_has_no_reference_quality(self, world):
        case = next(c for c in world["repaired"].cases if c.id == "normal")
        assert case.chamfer is None and case.emd is None

    def test_redetect_of_repaired_scores_not_worse(self, world, tmp_path):
        repair_dir = world["repaired"].results_path.parent
        case = next(c for c in world["repaired"].cases if c.id == "dented")
        redetect_dir = tmp_path / "redetect"
        redetect_dir.mkdir()
        shutil.copy(repair_dir / case.cloud, redetect_dir / "dented.ply")
        out = tmp_path / "out"
        out.mkdir()
        for name in ("model.ckpt", "model.json", "prepare.json", "canonical.ply"):
            shutil.copy(Path(world["config"].io.out_dir) / name, out / name)
        config = replace(
            world["config"],
            io=replace(
                world["config"].io,
                test_dir=str(redetect_dir),
                out_dir=str(out),
                labels=None,
            ),
        )
        summary = cmd_detect(config)
        original = next(
            c for c in world["detected"].cases if c.id == "dented"
        ).object_score
        assert summary.cases[0].object_score <= original

    def test_failed_repair_marks_row_and_continues(self, world, tmp_path, monkeypatch):
        config = _copy_out(world, tmp_path)
        real_repair = pipeline_module.repair

        def flaky(cloud, *args, **kwargs):
            if len(cloud) == 1024 and cloud.normals is None:
                raise RepairFailedError("synthetic repair failure")
            return real_repair(cloud, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "repair", flaky)
        summary = cmd_repair(config)
        cases = {case.id: case for case in summary.cases}
        assert cases["dented"].failed
        assert "synthetic repair failure" in cases["dented"].error
        assert not cases["normal"].failed
        with open(summary.results_path, encoding="utf-8") as fh:
            rows = {row["id"]: row for row in json.load(fh)["cases"]}
        assert rows["dented"]["failed"] is True

    def test_repair_grid_uses_the_training_shell(self, world, tmp_path, monkeypatch):
        config = replace(
            _copy_out(world, tmp_path),
            counts=replace(world["config"].counts, bbox_expand=1.6),
        )
        expands = []

        def record_expand(cloud, *args, **kwargs):
            expands.append(kwargs.get("expand"))
            raise RepairFailedError("not repaired")

        monkeypatch.setattr(pipeline_module, "repair", record_expand)
        cmd_repair(config)
        assert expands == [1.6, 1.6]

    def test_absolute_reference_is_read_from_its_own_path(
        self, world, tmp_path, monkeypatch
    ):
        config = _copy_out(world, tmp_path)
        manifest = tmp_path / "elsewhere" / "labels.json"
        manifest.parent.mkdir()
        entry = {"object": 1, "reference": str(world["root"] / "reference.ply")}
        manifest.write_text(json.dumps({"cases": {"dented": entry}}))
        config = replace(config, io=replace(config.io, labels=str(manifest)))
        references = []

        def record_reference(repaired, reference, **kwargs):
            references.append(reference)
            raise RepairFailedError("not measured")

        monkeypatch.setattr(pipeline_module, "repair_quality", record_reference)
        with pytest.raises(RepairFailedError, match="not measured"):
            cmd_repair(config)
        (reference,) = references
        assert reference.points.tobytes() == world["reference"].points.tobytes()

    def test_repair_reads_detect_artifacts_not_the_test_dir(
        self, world, tmp_path, monkeypatch
    ):
        config = _copy_out(world, tmp_path)
        config = replace(config, io=replace(config.io, test_dir=str(tmp_path / "ghost")))
        repaired = []

        def record_case(cloud, *args, **kwargs):
            repaired.append(len(cloud))
            raise RepairFailedError("not repaired")

        monkeypatch.setattr(pipeline_module, "repair", record_case)
        summary = cmd_repair(config)
        assert [case.id for case in summary.cases] == ["dented", "normal"]
        assert repaired == [1024, 1024]

    def test_each_cloud_is_aligned_once_and_repaired_as_scored(
        self, world, tmp_path, monkeypatch
    ):
        config = _copy_out(world, tmp_path)
        aligned = []

        def align_spy(src, tgt, **kwargs):
            result = pose_align(src, tgt, **kwargs)
            aligned.append(result.aligned)
            return result

        for module in (scoring_module, repair_module, queries_module):
            monkeypatch.setattr(module, "pose_align", align_spy)
        real_repair = pipeline_module.repair
        received, results = [], []

        def repair_spy(cloud, *args, **kwargs):
            received.append(cloud)
            results.append(real_repair(cloud, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pipeline_module, "repair", repair_spy)
        detected = cmd_detect(config)
        repaired = cmd_repair(config)
        assert len(aligned) == len(detected.cases) == 2

        detect_dir = detected.results_path.parent
        with open(detected.results_path, encoding="utf-8") as fh:
            rows = [read_record(DetectCase, row, "") for row in json.load(fh)["cases"]]
        assert rows == list(detected.cases)
        repair_dir = repaired.results_path.parent
        for row, scored, cloud, result, case in zip(
            rows, aligned, received, results, repaired.cases
        ):
            content = read_ply(detect_dir / row.score_map)
            expected = apply_transform(row.pose(), PointCloud(content.points, content.normals))
            assert cloud.points.tobytes() == expected.points.tobytes()
            assert cloud.points.tobytes() == scored.points.tobytes()
            if scored.normals is None:
                assert cloud.normals is None
            else:
                assert cloud.normals.tobytes() == scored.normals.tobytes()
            back = apply_transform(row.pose().inverse(), result.repaired)
            written = read_ply(repair_dir / case.cloud)
            assert written.points.tobytes() == back.points.tobytes()

    def test_repair_before_detect_exits_with_input_error(self, world, tmp_path, capsys):
        config = _copy_out(world, tmp_path)
        shutil.rmtree(Path(config.io.out_dir) / "detect")
        save_config(config, tmp_path / "run.json")
        capsys.readouterr()
        assert main(["repair", "--config", str(tmp_path / "run.json")]) == EXIT_INPUT
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        results = Path(config.io.out_dir) / "detect" / "results.json"
        assert errors == [f"error: {results}: detect results is missing"]

    def test_reflected_pose_is_refused_naming_the_row(self, world, tmp_path):
        config, artifact = _copy_run(
            world, tmp_path, "detect/results.json", _row_field("rotation", _REFLECTION)
        )
        with pytest.raises(InvalidInputError) as raised:
            cmd_repair(config)
        assert str(raised.value) == (
            f"{artifact}: cases[0]: rotation has negative determinant"
        )


class TestEval:
    def test_matches_detect_metrics(self, world):
        # Pooled here from detect's artifacts against the manifest's
        # labels: object scores from the results rows, point scores as
        # the score maps store them.
        detect_dir = world["detected"].results_path.parent
        with open(world["detected"].results_path, encoding="utf-8") as fh:
            rows = json.load(fh)["cases"]
        with open(world["config"].io.labels, encoding="utf-8") as fh:
            entries = json.load(fh)["cases"]
        o_auroc = auroc(
            np.array([row["object_score"] for row in rows]),
            np.array([entries[row["id"]]["object"] for row in rows]),
        )
        scores, marks = [], []
        for row in rows:
            points = entries[row["id"]].get("anomalous_points")
            if points is None:
                continue
            stored = read_ply(detect_dir / row["score_map"]).scores
            scores.append(stored.astype(np.float64))
            marks.append(np.isin(np.arange(len(stored)), points).astype(np.int64))
        assert len(scores) == 1
        assert world["evaluated"].o_auroc == o_auroc
        assert world["evaluated"].p_auroc == pooled_auroc(scores, marks)
        assert world["evaluated"].n_cases == 2

    def test_eval_json_written(self, world):
        with open(world["evaluated"].results_path, encoding="utf-8") as fh:
            results = json.load(fh)
        assert results["o_auroc"] == 1.0
        assert results["p_auroc"] is not None and results["p_auroc"] > 0.8
        assert results["n_cases"] == 2

    def test_requires_labels(self, world):
        config = replace(
            world["config"], io=replace(world["config"].io, labels=None)
        )
        with pytest.raises(InvalidInputError, match="labels manifest"):
            cmd_eval(config)

    def test_uncovered_cases_rejected(self, world, tmp_path):
        manifest = tmp_path / "labels.json"
        manifest.write_text('{"cases": {"stranger": {"object": 1}}}\n')
        config = replace(
            world["config"], io=replace(world["config"].io, labels=str(manifest))
        )
        with pytest.raises(InvalidInputError, match="covers none"):
            cmd_eval(config)


class TestLabelsManifest:
    @pytest.mark.parametrize(
        "entry, problem",
        [
            ({"object": "yes"}, "object: expected an integer, got 'yes'"),
            ({"object": 2}, "object must be 0 or 1, got 2"),
            ({"object": 1, "anomalous_points": [0.5]}, "anomalous_points[0]: expected an integer"),
            ([1, [0]], "expected a JSON object, got [1, [0]]"),
            ({"object": 1, "reference": 3}, "reference: expected a string, got 3"),
            ({"object": 1, "anomalus_points": [0]}, "unknown key 'anomalus_points'"),
        ],
        ids=[
            "object-not-a-label",
            "object-out-of-range",
            "fractional-point",
            "list-entry",
            "reference-not-a-path",
            "misspelt-key",
        ],
    )
    def test_malformed_entry_names_manifest_and_case(self, world, tmp_path, entry, problem):
        manifest = tmp_path / "labels.json"
        manifest.write_text(json.dumps({"cases": {"normal": {"object": 0}, "dented": entry}}))
        config = replace(
            world["config"], io=replace(world["config"].io, labels=str(manifest))
        )
        for command in (cmd_repair, cmd_eval):
            with pytest.raises(InvalidInputError, match=re.escape(problem)) as raised:
                command(config)
            assert str(manifest) in str(raised.value)
            assert "'dented'" in str(raised.value)

    @pytest.mark.parametrize("index", [2**70, -1, 1024], ids=["huge", "negative", "one-past"])
    def test_point_index_outside_the_cloud_exits_with_input_error(
        self, world, tmp_path, capsys, index
    ):
        # An index too large for int64 is refused as the others are,
        # not turned into an overflow traceback.
        manifest = tmp_path / "labels.json"
        entry = {"object": 1, "anomalous_points": [0, index]}
        manifest.write_text(json.dumps({"cases": {"normal": {"object": 0}, "dented": entry}}))
        out = tmp_path / "out"
        shutil.copytree(world["config"].io.out_dir, out)
        io = replace(world["config"].io, out_dir=str(out), labels=str(manifest))
        save_config(replace(world["config"], io=io), tmp_path / "run.json")
        capsys.readouterr()
        assert main(["eval", "--config", str(tmp_path / "run.json")]) == EXIT_INPUT
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert errors == [
            f"error: dented: anomalous point index {index} is outside the cloud's 1024 points"
        ]


def _truncated(text: str) -> str:
    return text[: len(text) // 2]


def _score_map_not_a_path(text: str) -> str:
    document = json.loads(text)
    document["cases"][0]["score_map"] = 5
    return json.dumps(document)


def _without_record(text: str) -> str:
    document = json.loads(text)
    del document["record"]
    return json.dumps(document)


def _without_object_score(text: str) -> str:
    document = json.loads(text)
    del document["cases"][0]["object_score"]
    return json.dumps(document)


def _row_field(field: str, value: object):
    def corrupt(text: str) -> str:
        document = json.loads(text)
        document["cases"][0][field] = value
        return json.dumps(document)

    return corrupt


def _sidecar_total(cast):
    def corrupt(text: str) -> str:
        document = json.loads(text)
        document["total"] = cast(document["total"])
        return json.dumps(document)

    return corrupt


def _record_field(field: str, value: object):
    def corrupt(text: str) -> str:
        document = json.loads(text)
        document["record"][field] = value
        return json.dumps(document)

    return corrupt


_REFLECTION = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_ZERO_ROTATION = [[0.0] * 3] * 3
_HUGE_ROTATION = [[1e308] * 3] * 3

# Normalisation records that convert to numbers but are not a scale and
# three offsets: JSON booleans and strings, a zero or negative scale, and
# offsets of the wrong length.
_BAD_RECORDS = {
    "scale-true": _record_field("scale", True),
    "scale-string": _record_field("scale", "1.5"),
    "scale-zero": _record_field("scale", 0.0),
    "scale-negative": _record_field("scale", -2.0),
    "offset-string": _record_field("offset", "012"),
    "offset-two-numbers": _record_field("offset", [0.0, 1.0]),
    "offset-four-numbers": _record_field("offset", [0.0, 1.0, 2.0, 3.0]),
    "offset-boolean": _record_field("offset", [0.0, False, 1.0]),
}


def _copy_out(world, tmp_path: Path) -> RunConfig:
    """The world's config writing to a copy of its artifacts under tmp_path."""
    out = tmp_path / "out"
    shutil.copytree(world["config"].io.out_dir, out)
    return replace(world["config"], io=replace(world["config"].io, out_dir=str(out)))


def _copy_run(world, tmp_path: Path, name: str, corrupt) -> tuple[RunConfig, Path]:
    """The world's run copied under tmp_path with one artifact corrupted,
    and its config saved beside it."""
    config = _copy_out(world, tmp_path)
    artifact = Path(config.io.out_dir) / name
    artifact.write_text(corrupt(artifact.read_text()))
    save_config(config, tmp_path / "run.json")
    return config, artifact


class TestMalformedArtifacts:
    """The command line exits 2 with one error line naming the bad file."""

    @pytest.mark.parametrize(
        "command, name, corrupt",
        [
            ("eval", "detect/results.json", _truncated),
            ("eval", "detect/results.json", _without_object_score),
            ("eval", "detect/results.json", _score_map_not_a_path),
            ("eval", "detect/results.json", _row_field("object_score", float("nan"))),
            ("eval", "detect/results.json", _row_field("object_score", 10**400)),
            ("eval", "detect/results.json", _row_field("object_score", True)),
            ("train", "samples.json", _truncated),
            ("train", "samples.json", lambda text: "[1, 2]\n"),
            ("train", "samples.json", _sidecar_total(float)),
            ("train", "samples.json", _sidecar_total(str)),
            ("train", "samples.json", _sidecar_total(lambda total: True)),
            ("train", "samples.json", _sidecar_total(lambda total: total + 1)),
            ("detect", "prepare.json", _without_record),
            ("repair", "prepare.json", _without_record),
            ("repair", "detect/results.json", _truncated),
            ("repair", "detect/results.json", _row_field("rotation", _REFLECTION)),
            ("repair", "detect/results.json", _row_field("rotation", [[1.0, 0.0, 0.0]] * 2)),
            ("repair", "detect/results.json", _row_field("translation", [0.0, "1", 0.0])),
            ("repair", "detect/results.json", _row_field("rotation", _ZERO_ROTATION)),
            ("repair", "detect/results.json", _row_field("rotation", _HUGE_ROTATION)),
            ("eval", "detect/results.json", _row_field("rotation", _REFLECTION)),
            *(("detect", "prepare.json", corrupt) for corrupt in _BAD_RECORDS.values()),
        ],
        ids=[
            "truncated-results",
            "row-missing-field",
            "row-field-wrong-type",
            "row-score-nan",
            "row-score-integer-beyond-float",
            "row-score-boolean",
            "truncated-sidecar",
            "list-sidecar",
            "sidecar-total-float",
            "sidecar-total-string",
            "sidecar-total-boolean",
            "sidecar-total-off-by-one",
            "detect-prepare-without-record",
            "repair-prepare-without-record",
            "repair-truncated-results",
            "repair-row-reflected-rotation",
            "repair-row-rotation-two-rows",
            "repair-row-translation-string",
            "repair-row-zero-rotation",
            "repair-row-huge-rotation",
            "eval-row-reflected-rotation",
            *(f"detect-record-{name}" for name in _BAD_RECORDS),
        ],
    )
    def test_exits_with_input_error(self, world, tmp_path, capsys, command, name, corrupt):
        _, artifact = _copy_run(world, tmp_path, name, corrupt)
        capsys.readouterr()
        assert main([command, "--config", str(tmp_path / "run.json")]) == EXIT_INPUT
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert str(artifact) in errors[0]

    @pytest.mark.parametrize("corrupt", _BAD_RECORDS.values(), ids=_BAD_RECORDS.keys())
    def test_detect_rejects_bad_normalisation_record(self, world, tmp_path, corrupt):
        config, artifact = _copy_run(world, tmp_path, "prepare.json", corrupt)
        with pytest.raises(InvalidInputError, match="normalisation") as raised:
            cmd_detect(config)
        assert str(artifact) in str(raised.value)

    @pytest.mark.parametrize("field, value", [("object_score", True), ("n_points", False)])
    def test_eval_rejects_boolean_numbers(self, world, tmp_path, field, value):
        config, artifact = _copy_run(
            world, tmp_path, "detect/results.json", _row_field(field, value)
        )
        problem = re.escape(f"cases[0]: {field}: expected ")
        with pytest.raises(InvalidInputError, match=problem) as raised:
            cmd_eval(config)
        assert str(artifact) in str(raised.value)


class TestArtifactFormat:
    def test_one_json_format_and_rows_are_dataclasses(self, world, tmp_path):
        bench = RunConfig(
            seed=11,
            counts=QueryCounts(volume=400, bbox=400, surface=400),
            network=NetworkConfig(input_dim=39, hidden_width=16),
            training=TrainConfig(learning_rate=1e-3, epochs=20, clamp_targets=True),
            grid=GridConfig(resolution=24),
            bench=BenchConfig(
                shapes=("sphere",),
                normal_cases=1,
                cloud_points=256,
                anomaly_kinds=("dent",),
                crop_cases=0,
            ),
        )
        assert len(run_bench(bench, out_dir=tmp_path).row("sphere").repairs) == 1
        out = Path(world["config"].io.out_dir)
        documents = sorted(out.rglob("*.json")) + sorted(tmp_path.rglob("*.json"))
        assert {path.name for path in documents} == {
            "samples.json",
            "prepare.json",
            "model.json",
            "results.json",
            "eval.json",
            "metrics.json",
            "manifest.json",
        }
        for path in documents:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        for summary, row_type in (("detected", DetectCase), ("repaired", RepairCase)):
            with open(world[summary].results_path, encoding="utf-8") as fh:
                rows = json.load(fh)["cases"]
            assert len(rows) == 2
            for row in rows:
                assert set(row) == {field.name for field in fields(row_type)}
