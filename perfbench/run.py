"""Benchmark of the pasdf pipeline: train, detect and repair workloads.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py make-fixtures

Run from the repository root.  ``--trace 0`` measures end-to-end metrics
with nothing instrumented; ``--trace 1`` runs the same fixed work once
plain and once traced, and reports per-layer metrics.  The last line of
standard output is one JSON object; a readable report and the run's
environment come before it, and a record with every case time and span
goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Set-up runs at least this many times and for at least this long at the
# start, then once after a timed case while the timed loop has spent less
# than SETUP_SHARE of its time on it.  On a shared 2-vCPU machine speed
# drifts by 20% over a few seconds, so set-ups spread over the run give
# a steadier median than one burst.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_SHARE = 0.1
# Untimed cases run first until this much time has passed: the first
# pass over fresh inputs runs up to 25% slower than later ones.  A
# workload may set its own ``warm_up_s``.
WARMUP_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "quality_error": "error",
}


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "pasdf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pasdf package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in ("PASDF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _tail(values: list[float], q: int | None) -> tuple[str, float]:
    """Percentile ``q`` if ten samples lie beyond it, else the maximum.

    ``q`` is fixed per workload, not picked from the sample count, so a
    faster run does not switch to a higher percentile and read as slower.
    """
    if q is not None and len(values) * (100 - q) >= 1000:
        return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def _same(a: dict, b: dict) -> bool:
    import numpy as np

    return a.keys() == b.keys() and all(np.array_equal(a[key], b[key]) for key in a)


class Runner:
    """Runs one workload: set-up, warm-up, then a timed or traced pass."""

    def __init__(self, workload, seed: int) -> None:
        from pasdf.errors import PasdfError

        self.workload = workload
        self.seed = seed
        self.error_type = PasdfError
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_times: list[float] = []

    def time_setup(self) -> dict:
        started = time.perf_counter()
        state = self.workload.setup(self.seed)
        self.setup_times.append(time.perf_counter() - started)
        return state

    def setup(self) -> dict:
        while len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_MIN_S:
            state = self.time_setup()
        self.workload.verify(state)
        return state

    def run_case(self, state: dict, case):
        self.attempted += 1
        try:
            return self.workload.run_case(state, case)
        except self.error_type as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None

    def first_pass(self, state: dict) -> list:
        return [self.run_case(state, case) for case in state["cases"]]

    def warm_up(self, state: dict) -> list:
        """Run leading cases untimed for the workload's warm-up time; at
        least one unless that time is 0."""
        outputs = []
        warm_up_s = getattr(self.workload, "warm_up_s", WARMUP_S)
        if warm_up_s <= 0:
            return outputs
        started = time.perf_counter()
        for case in state["cases"]:
            outputs.append(self.workload.run_case(state, case).outputs)
            if time.perf_counter() - started >= warm_up_s:
                break
        return outputs

    def timed(self, state: dict, seconds: float) -> tuple[list, list]:
        """Cycle the cases until every one ran once and ``seconds`` passed.

        Warm-up outputs, and those of every repeated case, must equal the
        first timed pass's exactly.
        """
        from workloads import CheckFailed

        cases = state["cases"]
        seen = dict(enumerate(self.warm_up(state)))
        first, samples = [], []
        started = time.perf_counter()
        setup_spent = 0.0
        index = 0
        while index < len(cases) or time.perf_counter() - started < seconds:
            if setup_spent < SETUP_SHARE * (time.perf_counter() - started):
                self.time_setup()
                setup_spent += self.setup_times[-1]
            slot = index % len(cases)
            out = self.run_case(state, cases[slot])
            if index < len(cases):
                first.append(out)
            index += 1
            if out is None:
                continue
            samples.append(out)
            if slot in seen and not _same(out.outputs, seen[slot]):
                raise CheckFailed(f"case {slot} gave different outputs when run again")
            seen.setdefault(slot, out.outputs)
        return first, samples


def _end_to_end(runner: Runner, state: dict, seconds: float) -> tuple[dict, dict]:
    workload = runner.workload
    first, samples = runner.timed(state, seconds)
    quality = workload.quality([(c, o.outputs) for c, o in zip(state["cases"], first) if o is not None])
    times_ms = [o.seconds * 1000.0 for o in samples]
    tail_name, tail = _tail(times_ms, getattr(workload, "tail_percentile", None))
    metrics = {
        "setup_s": statistics.median(runner.setup_times),
        "case_ms_p50": statistics.median(times_ms),
        "case_ms_tail": tail,
        "samples_per_s": sum(o.samples for o in samples) / sum(o.seconds for o in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
        "quality_error": quality.pop("quality_error"),
    }
    report = {
        "cases_timed": len(samples),
        "case_ms_tail_is": tail_name,
        "case_ms": times_ms,
        "setup_s_each": runner.setup_times,
        "failed_frac": len(runner.failures) / runner.attempted,
        "quality": quality,
    }
    return metrics, report


def _per_layer(runner: Runner, state: dict) -> tuple[dict, dict]:
    """Same fixed work twice, plain then traced; spans give the layers."""
    import layers
    from tracer import Tracer, instrument, summarize
    from workloads import CheckFailed

    workload = runner.workload
    runner.warm_up(state)

    started = time.perf_counter()
    plain_state = workload.setup(runner.seed)
    plain = runner.first_pass(plain_state)
    plain_wall = time.perf_counter() - started

    tracer = Tracer()
    with instrument(tracer, layers.HOOKS) as unbound:
        started = time.perf_counter()
        traced_state = workload.setup(runner.seed)
        traced = runner.first_pass(traced_state)
        traced_wall = time.perf_counter() - started
    for a, b in zip(plain, traced):
        if (a is None) != (b is None) or (a is not None and not _same(a.outputs, b.outputs)):
            raise CheckFailed("traced outputs differ from untraced outputs")

    stats, covered = summarize(tracer.spans)
    metrics = {
        f"{span}.{name}": layers.quantity(stats.get(span), name) for span, name, _ in layers.METRICS
    }
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - covered
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    report = {
        "untraced_wall_s": plain_wall,
        "unbound_hooks": unbound,
        "expected_not_hit": [span for span in workload.spans if span not in stats],
        "self_s_total": sum(s.self_seconds for s in stats.values()),
        "layers": {
            name: {"calls": s.calls, "s": s.seconds, "self_s": s.self_seconds, **s.counts}
            for name, s in sorted(stats.items())
        },
        "spans": [
            [span.name, span.start, span.end, span.parent, span.counts] for span in tracer.spans
        ],
    }
    return metrics, report


def _units(trace: bool) -> dict:
    if not trace:
        return END_TO_END
    import layers

    units = {f"{span}.{name}": unit for span, name, unit in layers.METRICS}
    units.update(dict(layers.RUN_METRICS))
    return units


def _print_report(workload, env: dict, metrics: dict, report: dict, units: dict) -> None:
    print(f"perfbench {workload.name}: environment {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    if "quality" in report:
        for name, (alias, scale, unit) in workload.aliases.items():
            print(f"  {alias:44s} {metrics[name] * scale:>16.6g} {unit}")
        for name, value in report["quality"].items():
            print(f"  {name:44s} {value:>16.6g}")
    for key in ("cases_timed", "case_ms_tail_is", "failed_frac", "self_s_total", "unbound_hooks", "expected_not_hit"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", choices=["run", "make-fixtures"], default="run")
    parser.add_argument("--workload", choices=["train", "detect", "repair"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    import inputs
    from workloads import WORKLOADS, CheckFailed

    if args.command == "make-fixtures":
        inputs.make_fixtures()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    runner = Runner(WORKLOADS[args.workload], args.seed)
    env = _environment()
    try:
        state = runner.setup()
        if args.trace:
            metrics, report = _per_layer(runner, state)
        else:
            metrics, report = _end_to_end(runner, state, args.seconds)
    except (CheckFailed, inputs.FixtureError) as exc:
        print(f"perfbench {args.workload}: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(runner.attempted, 1), "failed": len(runner.failures), "metrics": {}}))
        return 1

    units = _units(bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}-{args.seed}{suffix}.json").write_text(
        json.dumps({**record, "metrics": metrics, "failures": runner.failures, **report}, sort_keys=True) + "\n"
    )
    _print_report(runner.workload, env, metrics, report, units)
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
