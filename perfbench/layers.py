"""Which ``pasdf`` calls the traced run times, and the per-layer metrics.

Each hook names the module that makes a call and the name it calls, so
only calls from that module are timed.  Metrics are named
``<module>.<function>.<quantity>``; FLOP counts are computed from
``NetworkConfig.layer_shapes()``, not measured.
"""
from __future__ import annotations

from typing import Any

from tracer import Hook, LayerStats


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _forward_flop_per_row(config) -> int:
    return 2 * sum(fan_out * fan_in for fan_out, fan_in in config.layer_shapes())


def _backward_flop_per_row(config) -> int:
    """Weight gradients for every layer plus input gradients below layer 0."""
    shapes = config.layer_shapes()
    macs = sum(o * i for o, i in shapes) + sum(o * i for o, i in shapes[1:])
    return 2 * macs


def _forward_counts(args, kwargs, result) -> dict:
    model, rows = args[0], len(_arg(args, kwargs, 1, "encoded"))
    return {"rows": rows, "flop": rows * _forward_flop_per_row(model.config)}


def _loss_counts(args, kwargs, result) -> dict:
    model, rows = args[0], len(_arg(args, kwargs, 1, "encoded"))
    per_row = _forward_flop_per_row(model.config) + _backward_flop_per_row(model.config)
    return {"rows": rows, "flop": rows * per_row}


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


def _ransac_counts(args, kwargs, result) -> dict:
    return {
        "hypotheses": result.hypotheses_evaluated,
        "inliers": result.inlier_count,
        "correspondences": result.correspondence_count,
    }


HOOKS = [
    # Calls the benchmark makes itself.
    Hook("workloads", "train_model", "training.train_model"),
    Hook("workloads", "score_points", "scoring.score_points"),
    Hook("workloads", "repair", "repair.repair"),
    Hook("workloads", "repair_quality", "repair.repair_quality"),
    Hook("inputs", "sample_queries", "queries.sample_queries"),
    Hook("inputs", "label_queries", "queries.label_queries", _rows),
    Hook("inputs", "load_checkpoint", "checkpoint.load_checkpoint"),
    # The network, from every caller.
    Hook("pasdf.training", "loss_and_gradients", "network.loss_and_gradients", _loss_counts),
    Hook("pasdf.network", "SdfModel.forward", "network.forward", _forward_counts),
    Hook("pasdf.training", "positional_encode", "encoding.positional_encode", _rows),
    Hook("pasdf.scoring", "positional_encode", "encoding.positional_encode", _rows),
    Hook("pasdf.marching", "positional_encode", "encoding.positional_encode", _rows),
    Hook("pasdf.repair", "positional_encode", "encoding.positional_encode", _rows),
    # Pose alignment.
    Hook("pasdf.scoring", "pose_align", "registration.pose_align", lambda a, k, r: {"rounds": r.rounds}),
    Hook("pasdf.repair", "pose_align", "registration.pose_align", lambda a, k, r: {"rounds": r.rounds}),
    Hook("pasdf.registration", "voxel_downsample", "geometry.voxel_downsample"),
    Hook("pasdf.registration", "estimate_normals", "geometry.estimate_normals"),
    Hook("pasdf.registration", "compute_fpfh", "fpfh.compute_fpfh", lambda a, k, r: {"points": len(a[0])}),
    Hook("pasdf.registration", "ransac_align", "registration.ransac_align", _ransac_counts),
    Hook("pasdf.registration", "icp_refine", "registration.icp_refine", lambda a, k, r: {"iterations": r.iterations}),
    Hook("pasdf.registration", "chamfer_loss", "geometry.chamfer_loss"),
    # Repair.
    Hook(
        "pasdf.repair",
        "evaluate_field",
        "marching.evaluate_field",
        lambda a, k, r: {"points": int(r.size)},
    ),
    Hook("pasdf.repair", "marching_cubes", "marching.marching_cubes", lambda a, k, r: {"faces": len(r.faces)}),
    Hook("pasdf.repair", "sample_surface", "mesh.sample_surface"),
    Hook("pasdf.repair", "emd", "repair.emd"),
    Hook("pasdf.repair", "solve_assignment", "assignment.solve_assignment", lambda a, k, r: {"n": len(a[0])}),
    Hook("pasdf.repair", "chamfer_metric", "geometry.chamfer_metric"),
]

# (span, quantity, unit).  A quantity is seconds ("s"), self seconds
# ("self_s"), calls, a summed count, or one of the ratios below.
METRICS = [
    ("training.train_model", "s", "s"),
    ("training.train_model", "self_s", "s"),
    ("network.loss_and_gradients", "s", "s"),
    ("network.loss_and_gradients", "calls", "count"),
    ("network.loss_and_gradients", "rows", "count"),
    ("network.loss_and_gradients", "gflop", "GFLOP"),
    ("network.forward", "s", "s"),
    ("network.forward", "calls", "count"),
    ("network.forward", "rows", "count"),
    ("network.forward", "gflop", "GFLOP"),
    ("network.forward", "gflop_per_s", "GFLOP/s"),
    ("encoding.positional_encode", "s", "s"),
    ("encoding.positional_encode", "rows", "count"),
    ("marching.evaluate_field", "s", "s"),
    ("marching.evaluate_field", "points", "count"),
    ("marching.evaluate_field", "points_per_s", "1/s"),
    ("marching.marching_cubes", "s", "s"),
    ("marching.marching_cubes", "faces", "count"),
    ("mesh.sample_surface", "s", "s"),
    ("repair.repair", "self_s", "s"),
    ("repair.repair_quality", "s", "s"),
    ("repair.emd", "s", "s"),
    ("assignment.solve_assignment", "s", "s"),
    ("assignment.solve_assignment", "n", "count"),
    ("geometry.chamfer_metric", "s", "s"),
    ("registration.pose_align", "s", "s"),
    ("registration.pose_align", "rounds", "count"),
    ("geometry.voxel_downsample", "s", "s"),
    ("geometry.estimate_normals", "s", "s"),
    ("fpfh.compute_fpfh", "s", "s"),
    ("fpfh.compute_fpfh", "points", "count"),
    ("registration.ransac_align", "s", "s"),
    ("registration.ransac_align", "hypotheses", "count"),
    ("registration.ransac_align", "inlier_fraction", "fraction"),
    ("registration.ransac_align", "failures", "count"),
    ("registration.icp_refine", "s", "s"),
    ("registration.icp_refine", "iterations", "count"),
    ("geometry.chamfer_loss", "s", "s"),
    ("scoring.score_points", "self_s", "s"),
    ("queries.sample_queries", "s", "s"),
    ("queries.label_queries", "s", "s"),
    ("queries.label_queries", "rows", "count"),
    ("checkpoint.load_checkpoint", "s", "s"),
]
RUN_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantity(stats: LayerStats | None, name: str) -> float:
    """One quantity of a layer; a layer that was never called reads 0."""
    if stats is None:
        return 0.0
    counts = stats.counts
    if name == "s":
        return stats.seconds
    if name == "self_s":
        return stats.self_seconds
    if name == "calls":
        return float(stats.calls)
    if name == "gflop":
        return counts.get("flop", 0.0) / 1e9
    if name == "gflop_per_s":
        return _ratio(counts.get("flop", 0.0) / 1e9, stats.seconds)
    if name == "points_per_s":
        return _ratio(counts.get("points", 0.0), stats.seconds)
    if name == "inlier_fraction":
        return _ratio(counts.get("inliers", 0.0), counts.get("correspondences", 0.0))
    if name == "failures":
        return counts.get("errors", 0.0)
    return counts.get(name, 0.0)
