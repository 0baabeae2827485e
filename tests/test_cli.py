"""Exit codes and error lines of the command-line front end."""
from __future__ import annotations

import numpy as np
import pytest

from oracles import UNUSABLE_CLOUDS, save_config, write_ascii_ply
from pasdf import cli, pipeline
from pasdf.config import IoConfig, RunConfig
from pasdf.errors import (
    CheckpointMismatchError,
    CoarseAlignmentError,
    ConfigValidationError,
    InvalidInputError,
    InvalidParameterError,
    RepairFailedError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from pasdf.geometry import PointCloud
from pasdf.mesh import sample_surface
from pasdf.meshio import write_cloud_ply
from pasdf.shapes import blob


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    save_config(RunConfig(), path)
    return path


def run_train_raising(monkeypatch, config_path, error: Exception) -> int:
    def fail(config):
        raise error

    monkeypatch.setattr(pipeline, "cmd_train", fail)
    return cli.main(["train", "--config", str(config_path)])


@pytest.mark.parametrize(
    "error, code",
    [
        (FileNotFoundError("no such file"), cli.EXIT_INPUT),
        (InvalidInputError("bad input"), cli.EXIT_INPUT),
        (UndefinedMetricError("one class"), cli.EXIT_INPUT),
        (
            TrainingDivergedError("nan loss", epoch=1, batch=2, param_norm=3.0),
            cli.EXIT_NUMERIC,
        ),
        (CheckpointMismatchError("other architecture"), cli.EXIT_ARTIFACT),
        (ConfigValidationError("bad field"), cli.EXIT_VALIDATION),
        (InvalidParameterError("out of range"), cli.EXIT_VALIDATION),
        (CoarseAlignmentError("no hypothesis"), cli.EXIT_FAILURE),
        (RepairFailedError("no surface"), cli.EXIT_FAILURE),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_error_maps_to_exit_code(monkeypatch, config_path, capsys, error, code):
    capsys.readouterr()
    assert run_train_raising(monkeypatch, config_path, error) == code
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {error}"]


def test_other_errors_propagate(monkeypatch, config_path):
    with pytest.raises(RuntimeError, match="not ours"):
        run_train_raising(monkeypatch, config_path, RuntimeError("not ours"))


def test_non_finite_config_value_exits_as_validation_error(tmp_path, capsys):
    # json.loads reads NaN; the run stops at validation, before training.
    path = tmp_path / "nan.json"
    path.write_text('{"training": {"learning_rate": NaN}}')
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: training.learning_rate: expected a finite number, got nan"]


def test_grid_resolution_beyond_the_bound_exits_as_validation_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text('{"grid": {"resolution": 893}}')
    assert cli.main(["repair", "--config", str(path)]) == cli.EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: grid: grid resolution must be in [8, 892], got 893"]


def run_prepare(tmp_path, capsys) -> tuple[int, list[str]]:
    """``pasdf prepare`` on the clouds in ``tmp_path/train``: exit code and error lines."""
    path = tmp_path / "run.json"
    save_config(
        RunConfig(io=IoConfig(train_dir=str(tmp_path / "train"), out_dir=str(tmp_path / "out"))),
        path,
    )
    code = cli.main(["prepare", "--config", str(path)])
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    return code, [line for line in stderr.splitlines() if line.startswith("error:")]


def test_unopenable_training_cloud_exits_as_input_error(tmp_path, capsys):
    # A directory that matches *.ply cannot be opened as a file.
    (tmp_path / "train" / "x.ply").mkdir(parents=True)
    code, errors = run_prepare(tmp_path, capsys)
    assert code == cli.EXIT_INPUT
    assert len(errors) == 1
    assert f"{tmp_path / 'train' / 'x.ply'}: PLY file is not readable" in errors[0]


def test_training_cloud_too_small_for_normals_exits_as_input_error(tmp_path, capsys):
    # Ten points without normals cannot fill a 16-point normal neighbourhood.
    (tmp_path / "train").mkdir()
    small = tmp_path / "train" / "a.ply"
    write_cloud_ply(small, PointCloud(np.random.default_rng(0).random((10, 3))))
    code, errors = run_prepare(tmp_path, capsys)
    assert code == cli.EXIT_INPUT
    assert errors == [
        f"error: {small}: 10 points without normals; estimating normals needs at least 16"
    ]


def test_coincident_canonical_cloud_exits_as_input_error(tmp_path, capsys):
    # The first cloud is the canonical one; with all its points in one
    # place it has no extent to align the other cloud onto.
    (tmp_path / "train").mkdir()
    canonical = tmp_path / "train" / "a.ply"
    write_cloud_ply(canonical, PointCloud(np.ones((100, 3))))
    write_cloud_ply(tmp_path / "train" / "b.ply", sample_surface(blob(), 100, seed=1))
    code, errors = run_prepare(tmp_path, capsys)
    assert code == cli.EXIT_INPUT
    assert errors == [f"error: {canonical}: canonical cloud's points all coincide"]


@pytest.mark.parametrize("rows, problem", UNUSABLE_CLOUDS.values(), ids=UNUSABLE_CLOUDS.keys())
def test_unusable_training_cloud_names_the_file(tmp_path, capsys, rows, problem):
    (tmp_path / "train").mkdir()
    bad = tmp_path / "train" / "a.ply"
    write_ascii_ply(bad, rows)
    code, errors = run_prepare(tmp_path, capsys)
    assert code == cli.EXIT_INPUT
    assert errors == [f"error: {bad}: {problem}"]
