"""The benchmark's hooks into ``pasdf`` must all resolve, its fixture
models must load, its workloads must set up and run, and repair on its
cases must give the mesh of the densely sampled field.

``perfbench/layers.py`` names, per calling module, the ``pasdf`` functions
a traced run rebinds.  A hook whose name no longer exists is skipped at
run time and its layer reads 0, so a rename or a moved call would
otherwise go unnoticed until someone reads a traced report.
"""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from field_oracle import dense_field
from pasdf import registration, scoring
from pasdf.config import RunConfig
from pasdf.marching import GridSpec, marching_cubes
from pasdf.repair import DEFAULT_EMD_SUBSAMPLE, repair
from pasdf.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` as top-level module ``name``, the way
    the benchmark's own scripts import their siblings."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_pasdf_hook_resolves(monkeypatch) -> None:
    # layers.py imports its Hook type from the sibling module "tracer".
    tracer = load_by_path("tracer", monkeypatch)
    layers = load_by_path("layers", monkeypatch)

    hooks = [hook for hook in layers.HOOKS if hook.consumer.startswith("pasdf.")]
    assert hooks
    with tracer.instrument(tracer.Tracer(), hooks) as unbound:
        assert unbound == []


def test_fixture_models_load(monkeypatch) -> None:
    # The benchmark's fixtures go through the checkpoint sidecar reader,
    # and its training workload rebuilds TrainConfig from to_dict().
    inputs = load_by_path("inputs", monkeypatch)
    for kind in ("torus", "blob"):
        inputs.check_probes(inputs.load_world(kind, seed=0))
    assert TrainConfig(**inputs.TRAINING.to_dict()) == inputs.TRAINING


def test_perfbench_measures_the_default_configuration(monkeypatch) -> None:
    # inputs.py pins its settings as copies of configs/bench.json, which
    # are the defaults; a default that drifts from them is no longer
    # what the benchmark measures.
    inputs = load_by_path("inputs", monkeypatch)
    config = RunConfig()
    assert inputs.NETWORK == config.network
    assert inputs.ENCODING == config.encoding
    assert inputs.COUNTS == config.counts
    assert replace(inputs.TRAINING, seed=config.training.seed) == config.training
    assert (inputs.TOP_K, inputs.EMD_SUBSAMPLE) == (scoring.DEFAULT_TOP_K, DEFAULT_EMD_SUBSAMPLE)
    assert inputs.RESOLUTION == config.grid.resolution
    assert inputs.CLOUD_POINTS == config.bench.cloud_points
    bench = config.bench
    assert (inputs.RADIUS_FRAC, inputs.CROP_RADIUS_FRAC, inputs.MAGNITUDE_FRAC) == (
        bench.radius_frac,
        bench.crop_radius_frac,
        bench.magnitude_frac,
    )


def test_workloads_set_up_and_run_a_case(monkeypatch) -> None:
    # The benchmark also calls pasdf directly, outside the hooked names:
    # shape generation, query labelling, defect injection, training,
    # predict_sdf, scoring and repair without alignment.  One case of
    # each workload runs its own output checks.
    load_by_path("inputs", monkeypatch)
    workloads = load_by_path("workloads", monkeypatch)
    outputs = {}
    for name in ("train", "detect", "repair"):
        workload = workloads.WORKLOADS[name]
        state = workload.setup(seed=0)
        workload.verify(state)
        outputs[name] = (state, workload.run_case(state, state["cases"][0]))
    state, output = outputs["train"]
    assert output.samples == workloads.TRAIN_EPOCHS * len(state["queries"])
    state, output = outputs["detect"]
    assert output.samples == len(state["cases"][0].cloud)
    _, output = outputs["repair"]
    assert output.samples == workloads.RESOLUTION**3


def test_detect_clouds_align_in_one_round_of_short_icp(monkeypatch) -> None:
    # Point-to-plane ICP settles the benchmark's posed clouds in a few
    # steps, far inside its 50-iteration budget.
    load_by_path("inputs", monkeypatch)
    workloads = load_by_path("workloads", monkeypatch)
    detect = workloads.WORKLOADS["detect"]
    state = detect.setup(seed=0)
    pose_align, icp_refine = scoring.pose_align, registration.icp_refine
    alignments, icp_iterations = [], []

    def record_align(*args, **kwargs):
        alignments.append(pose_align(*args, **kwargs))
        return alignments[-1]

    def record_icp(*args, **kwargs):
        result = icp_refine(*args, **kwargs)
        icp_iterations.append(result.iterations)
        return result

    monkeypatch.setattr(scoring, "pose_align", record_align)
    monkeypatch.setattr(registration, "icp_refine", record_icp)
    for case in state["cases"][:8]:
        detect.run_case(state, case)
    assert [(a.rounds, a.converged) for a in alignments] == [(1, True)] * 8
    assert len(icp_iterations) == 8
    assert max(icp_iterations) <= 15


def test_repair_mesh_equals_dense_field_mesh(monkeypatch) -> None:
    # Repair evaluates the field only near sign changes.  On the
    # benchmark's own repair cases that must not move a single vertex
    # against marching cubes over the field sampled everywhere.
    inputs = load_by_path("inputs", monkeypatch)
    workloads = load_by_path("workloads", monkeypatch)
    state = workloads.WORKLOADS["repair"].setup(seed=0)
    assert [(c.shape, c.kind) for c in state["cases"]] == [("torus", "dent"), ("blob", "crop")]
    for case in state["cases"]:
        world = state["worlds"][case.shape]
        result = repair(
            case.cloud,
            world.model,
            inputs.ENCODING,
            world.canonical,
            world.record,
            seed=0,
            resolution=64,
            n_points=256,
            align=False,
        )
        grid = GridSpec.for_cloud(world.record.normalize(case.cloud.points), resolution=64)
        dense = marching_cubes(dense_field(world.model, inputs.ENCODING, grid), grid)
        np.testing.assert_array_equal(
            result.mesh.vertices, world.record.denormalize(dense.vertices)
        )
        np.testing.assert_array_equal(result.mesh.faces, dense.faces)
