"""Tests for benchmark shape specs, anomaly injection, and the runner."""
from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import check_watertight, signed_volume
from pasdf.bench import (
    AnomalySpec,
    BenchResult,
    ShapeSpec,
    generate_shape,
    inject_anomaly,
    metrics_table,
    run_bench,
)
from pasdf.config import BenchConfig, GridConfig, RunConfig
from pasdf.errors import InvalidParameterError, PasdfError
from pasdf.mesh import sample_surface
from pasdf.network import NetworkConfig
from pasdf.queries import QueryCounts
from pasdf.training import TrainConfig

ALL_KINDS = ("sphere", "box", "torus", "capsule")


def small_run_config(**bench_overrides) -> RunConfig:
    bench_kwargs = dict(
        shapes=("sphere",),
        normal_cases=2,
        cloud_points=512,
        anomaly_kinds=("dent", "noise_patch"),
        crop_cases=1,
    )
    bench_kwargs.update(bench_overrides)
    return RunConfig(
        seed=11,
        counts=QueryCounts(volume=1000, bbox=1000, surface=1000),
        network=NetworkConfig(input_dim=39, hidden_width=32),
        training=TrainConfig(learning_rate=1e-3, epochs=80, clamp_targets=True),
        grid=GridConfig(resolution=48),
        bench=BenchConfig(**bench_kwargs),
    )


class TestShapeSpec:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generated_meshes_are_watertight(self, kind: str) -> None:
        mesh = generate_shape(ShapeSpec(kind=kind), seed=0)
        watertight, open_edges = check_watertight(mesh)
        assert watertight, f"{open_edges} open edges"
        assert signed_volume(mesh) > 0.0

    def test_torus_vertices_satisfy_surface_equation(self) -> None:
        mesh = generate_shape(ShapeSpec(kind="torus"), seed=0)
        x, y, z = mesh.vertices.T
        residual = (np.sqrt(x**2 + y**2) - 0.35) ** 2 + z**2 - 0.12**2
        assert np.abs(residual).max() < 1e-6

    def test_box_extents_exact(self) -> None:
        mesh = generate_shape(ShapeSpec(kind="box"), seed=0)
        lo, hi = mesh.bounds()
        np.testing.assert_allclose(hi - lo, [1.0, 0.6, 0.4], atol=1e-9)

    @pytest.mark.parametrize(
        "kind, n_faces, half_extents",
        [
            ("sphere", 1280, (0.5, 0.5, 0.5)),
            ("box", 12, (0.5, 0.3, 0.2)),
            ("torus", 2304, (0.47, 0.47, 0.12)),
            ("capsule", 576, (0.2, 0.2, 0.45)),
        ],
    )
    def test_bench_meshes_are_pinned(self, kind, n_faces, half_extents) -> None:
        # The bench builds every shape from generator defaults; a changed
        # default would silently change every bench metric.
        mesh = generate_shape(ShapeSpec(kind=kind), seed=0)
        assert mesh.n_faces == n_faces
        lo, hi = mesh.bounds()
        np.testing.assert_array_equal(hi, half_extents)
        np.testing.assert_array_equal(lo, -np.asarray(half_extents))

    def test_deterministic(self) -> None:
        a = generate_shape(ShapeSpec(kind="capsule"), seed=1)
        b = generate_shape(ShapeSpec(kind="capsule"), seed=2)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(InvalidParameterError, match="kind"):
            ShapeSpec(kind="teapot")


@pytest.fixture(scope="module")
def sphere_cloud():
    return sample_surface(generate_shape(ShapeSpec(kind="sphere"), 0), 3000, seed=5)


class TestAnomalySpec:
    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(InvalidParameterError, match="kind"):
            AnomalySpec(kind="scratch", center=(0, 0, 0), radius=0.1)
        with pytest.raises(InvalidParameterError, match="center"):
            AnomalySpec(kind="dent", center=(0, 0), radius=0.1)  # type: ignore[arg-type]
        with pytest.raises(InvalidParameterError, match="center"):
            AnomalySpec(kind="dent", center=(0, 0, float("nan")), radius=0.1)
        with pytest.raises(InvalidParameterError, match="radius"):
            AnomalySpec(kind="dent", center=(0, 0, 0), radius=0.0)
        with pytest.raises(InvalidParameterError, match="magnitude"):
            AnomalySpec(kind="dent", center=(0, 0, 0), radius=0.1, magnitude=-0.01)

    def test_zero_magnitude_allowed(self) -> None:
        spec = AnomalySpec(kind="dent", center=(0, 0, 0), radius=0.1, magnitude=0.0)
        assert spec.magnitude == 0.0


class TestInjectAnomaly:
    def test_dent_displaces_exactly_the_ball(self, sphere_cloud) -> None:
        center = sphere_cloud.points[20]
        spec = AnomalySpec(
            kind="dent", center=tuple(center), radius=0.1, magnitude=0.05
        )
        out, labels = inject_anomaly(sphere_cloud, spec, seed=0)
        inside = np.linalg.norm(sphere_cloud.points - center, axis=1) < 0.1
        moved = ~np.isclose(out.points, sphere_cloud.points).all(axis=1)
        np.testing.assert_array_equal(moved, inside)
        np.testing.assert_array_equal(labels.astype(bool), inside)
        shift = np.linalg.norm(out.points - sphere_cloud.points, axis=1)
        assert shift.max() == pytest.approx(0.05, abs=1e-9)

    def test_zero_magnitude_dent_is_identity(self, sphere_cloud) -> None:
        spec = AnomalySpec(
            kind="dent",
            center=tuple(sphere_cloud.points[20]),
            radius=0.1,
            magnitude=0.0,
        )
        out, labels = inject_anomaly(sphere_cloud, spec, seed=0)
        np.testing.assert_array_equal(out.points, sphere_cloud.points)
        assert not labels.any()

    def test_crop_removes_the_ball(self, sphere_cloud) -> None:
        center = sphere_cloud.points[20]
        spec = AnomalySpec(kind="crop", center=tuple(center), radius=0.2)
        out, labels = inject_anomaly(sphere_cloud, spec, seed=0)
        assert len(out) < len(sphere_cloud)
        assert len(labels) == len(out)
        assert (np.linalg.norm(out.points - center, axis=1) >= 0.2).all()

    def test_noise_patch_deterministic_per_seed(self, sphere_cloud) -> None:
        spec = AnomalySpec(
            kind="noise_patch",
            center=tuple(sphere_cloud.points[20]),
            radius=0.2,
            magnitude=0.01,
        )
        first, _ = inject_anomaly(sphere_cloud, spec, seed=3)
        second, _ = inject_anomaly(sphere_cloud, spec, seed=3)
        third, _ = inject_anomaly(sphere_cloud, spec, seed=4)
        np.testing.assert_array_equal(first.points, second.points)
        assert not np.array_equal(first.points, third.points)

    @pytest.mark.parametrize("kind", ("dent", "bulge", "crop", "noise_patch"))
    def test_empty_affected_set_rejected(self, sphere_cloud, kind: str) -> None:
        spec = AnomalySpec(
            kind=kind, center=(9.0, 9.0, 9.0), radius=0.1, magnitude=0.05
        )
        with pytest.raises(InvalidParameterError):
            inject_anomaly(sphere_cloud, spec, seed=0)


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def bench_result(bench_out) -> BenchResult:
    return run_bench(small_run_config(), out_dir=bench_out)


def artifact_bytes(out_dir) -> dict[str, bytes]:
    """Every bench artifact but the timing log, keyed by relative path."""
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "bench.log"
    }


class TestRunBench:
    def test_row_layout(self, bench_result) -> None:
        row = bench_result.row("sphere")
        assert not row.failed
        assert len(row.cases) == 5
        names = [case.name for case in row.cases]
        assert names == [
            "normal-00",
            "normal-01",
            "dent-00",
            "noise_patch-01",
            "crop-track-00",
        ]
        pool_flags = [case.in_pool for case in row.cases]
        assert pool_flags == [True, True, True, True, False]

    def test_aurocs_defined(self, bench_result) -> None:
        row = bench_result.row("sphere")
        assert 0.0 <= row.o_auroc <= 1.0
        assert 0.0 <= row.p_auroc <= 1.0
        assert 0.0 <= row.o_auroc_no_pam <= 1.0

    def test_repair_track_includes_dent_and_crop(self, bench_result) -> None:
        kinds = {repair.kind for repair in bench_result.row("sphere").repairs}
        assert kinds == {"dent", "crop"}

    def test_metrics_table_shape(self, bench_result) -> None:
        table = metrics_table(bench_result)
        lines = table.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("shape,o_auroc,p_auroc,o_auroc_no_pam")
        assert lines[1].startswith("sphere,")

    def test_deterministic_rerun(self, bench_result) -> None:
        again = run_bench(small_run_config())
        assert metrics_table(again) == metrics_table(bench_result)

    def test_artifacts(self, bench_result, bench_out, tmp_path) -> None:
        config = small_run_config()
        result = run_bench(config, out_dir=tmp_path)
        assert (tmp_path / "metrics.csv").read_text() == metrics_table(result)
        # A second run writes the same metrics, manifest and case clouds.
        first, second = artifact_bytes(bench_out), artifact_bytes(tmp_path)
        assert {"metrics.json", "manifest.json", "cases/sphere/dent-00.ply"} <= set(first)
        assert second == first
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["shapes"][0]["shape"] == "sphere"
        assert len(metrics["shapes"][0]["cases"]) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cases = manifest["shapes"][0]["cases"]
        assert len(cases) == 5
        for case in cases:
            assert (tmp_path / case["file"]).is_file()
        dent_case = next(c for c in cases if c["kind"] == "dent")
        assert dent_case["anomaly"]["radius"] > 0.0

    def test_each_defect_injected_once(self, tmp_path, monkeypatch) -> None:
        import pasdf.bench as bench_module

        calls = []
        real_inject = bench_module.inject_anomaly

        def counting(cloud, spec, seed):
            calls.append(spec.kind)
            return real_inject(cloud, spec, seed)

        monkeypatch.setattr(bench_module, "inject_anomaly", counting)
        run_bench(small_run_config(), out_dir=tmp_path)
        # Two anomalous cases and one crop-track case, built once each.
        assert sorted(calls) == ["crop", "dent", "noise_patch"]

    def test_failed_shape_isolated(self, tmp_path, monkeypatch) -> None:
        import pasdf.bench as bench_module

        real_run_shape = bench_module.run_shape

        def failing(kind: str, config: RunConfig):
            if kind == "box":
                raise PasdfError("synthetic failure")
            return real_run_shape(kind, config)

        monkeypatch.setattr(bench_module, "run_shape", failing)
        config = small_run_config(shapes=("box", "sphere"))
        result = run_bench(config, out_dir=tmp_path)
        assert result.row("box").failed
        assert "synthetic failure" in result.row("box").error
        assert not result.row("sphere").failed
        table = metrics_table(result)
        assert "true" in table.split("\n")[1]  # the failed row
        # The manifest lists only clouds that were scored.
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        entries = {entry["shape"]: entry for entry in manifest["shapes"]}
        assert entries["box"]["cases"] == []
        assert len(entries["sphere"]["cases"]) == 5
        assert not (tmp_path / "cases" / "box").exists()

    def test_unknown_shape_lookup_raises(self, bench_result) -> None:
        with pytest.raises(KeyError):
            bench_result.row("box")
