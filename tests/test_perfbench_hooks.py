"""The benchmark's hooks into ``pasdf`` must all resolve, its fixture
models must load, and its workloads must set up and run.

``perfbench/layers.py`` names, per calling module, the ``pasdf`` functions
a traced run rebinds.  A hook whose name no longer exists is skipped at
run time and its layer reads 0, so a rename or a moved call would
otherwise go unnoticed until someone reads a traced report.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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


def test_workloads_set_up_and_run_a_case(monkeypatch) -> None:
    # The benchmark also calls pasdf directly, outside the hooked names:
    # shape generation, query labelling, defect injection and scoring.
    load_by_path("inputs", monkeypatch)
    workloads = load_by_path("workloads", monkeypatch)
    states = {}
    for name in ("train", "detect", "repair"):
        workload = workloads.WORKLOADS[name]
        states[name] = workload.setup(seed=0)
        workload.verify(states[name])
    case = states["detect"]["cases"][0]
    output = workloads.WORKLOADS["detect"].run_case(states["detect"], case)
    assert output.samples == len(case.cloud)
