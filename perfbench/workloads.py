"""The three workloads: train, detect and repair.

Each workload has a set-up step (input generation and fixture load), a
fixed list of cases made from the run seed, and a ``run_case`` that times
only the calls into ``pasdf`` and returns the case's outputs.  Outputs are
checked for correctness here; ``run.py`` checks them for determinism and
turns them into metrics.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import inputs
from inputs import (
    EMD_SUBSAMPLE,
    ENCODING,
    NETWORK,
    RESOLUTION,
    SHAPES,
    TOP_K,
    TRAINING,
)
from pasdf.repair import repair, repair_quality
from pasdf.rng import derive_seed
from pasdf.scoring import auroc, score_points
from pasdf.training import TrainConfig, predict_sdf, train_model


class CheckFailed(RuntimeError):
    """An output failed a correctness check; no numbers may be reported."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class CaseOutput:
    """What one case produced: its timed seconds, work done and outputs.

    ``outputs`` must be bit-identical whenever the same case runs again.
    """

    seconds: float
    samples: int
    outputs: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# train: the MLP fit, forward + backward + Adam at batch 4096.

TRAIN_SHAPE = "torus"
# One case is a few seconds on a 2-core machine.
TRAIN_EPOCHS = 6
# The optimiser's own seed (initialisation, shuffles, dropout) is fixed,
# so the run seed varies the queries and quality is not an
# initialisation lottery: with seeded inits the surface error after a
# few epochs varies by a factor of seven across seeds.
TRAIN_SEED = derive_seed(inputs.FIXTURE_SEED, "train-workload")


class Train:
    name = "train"
    # Generic metric -> (name in the readable report, scale, unit).
    aliases = {"samples_per_s": ("train_samples_per_s", 1.0, "1/s")}
    spans = (
        "training.train_model",
        "network.loss_and_gradients",
        "encoding.positional_encode",
        "queries.sample_queries",
        "queries.label_queries",
    )

    def setup(self, seed: int) -> dict:
        queries, normalized = inputs.training_queries(TRAIN_SHAPE, seed)
        config = TrainConfig(
            **{**TRAINING.to_dict(), "epochs": TRAIN_EPOCHS, "seed": TRAIN_SEED}
        )
        return {
            "queries": queries,
            "config": config,
            "held_out": inputs.held_out_surface(normalized, seed),
            "cases": [0],
        }

    def verify(self, state: dict) -> None:
        pass

    def run_case(self, state: dict, case: int) -> CaseOutput:
        queries = state["queries"]
        started = time.perf_counter()
        trained = train_model(queries, state["config"], ENCODING, NETWORK)
        seconds = time.perf_counter() - started
        losses = np.asarray(trained.loss_history)
        _check(losses.size == TRAIN_EPOCHS and np.isfinite(losses).all(), "training loss is non-finite")
        surface = np.abs(predict_sdf(trained.model, state["held_out"], ENCODING))
        _check(np.isfinite(surface).all(), "held-out surface values are non-finite")
        return CaseOutput(
            seconds,
            TRAIN_EPOCHS * len(queries),
            {"final_loss": trained.final_loss, "surface_mae": float(surface.mean())},
        )

    def quality(self, results: list[tuple[Any, dict]]) -> dict[str, float]:
        outputs = [o for _, o in results]
        final_loss = float(np.mean([o["final_loss"] for o in outputs]))
        surface_mae = float(np.mean([o["surface_mae"] for o in outputs]))
        return {
            "train_final_loss": final_loss,
            "train_surface_mae": surface_mae,
            # After a few epochs the surface error still moves by 15%
            # with the query seed; the final loss moves by 1%.
            "quality_error": final_loss,
        }


# ---------------------------------------------------------------------------
# detect: pose alignment then |f| scoring of posed 2048-point clouds.

DETECT_CLOUDS_PER_SHAPE = 24
# Half normal; the defects cycle through the three displacement kinds.
DETECT_KINDS = ("normal", "dent", "normal", "bulge", "normal", "noise_patch")


def _check_fixtures(self, state: dict) -> None:
    for world in state["worlds"].values():
        inputs.check_probes(world)


class Detect:
    name = "detect"
    aliases = {"case_ms_p50": ("detect_ms_p50", 1.0, "ms"), "case_ms_tail": ("detect_ms_tail", 1.0, "ms")}
    # The highest percentile with ten samples beyond it at the fewest
    # clouds a 30 s run times here (about 90); train and repair time too
    # few cases for any and report their maximum.
    tail_percentile = 80
    spans = (
        "scoring.score_points",
        "registration.pose_align",
        "geometry.voxel_downsample",
        "geometry.estimate_normals",
        "fpfh.compute_fpfh",
        "registration.ransac_align",
        "registration.icp_refine",
        "geometry.chamfer_loss",
        "network.forward",
        "encoding.positional_encode",
        "checkpoint.load_checkpoint",
    )
    verify = _check_fixtures

    def setup(self, seed: int) -> dict:
        worlds = {kind: inputs.load_world(kind, seed) for kind in SHAPES}
        cases = [
            inputs.make_cloud(
                worlds[shape],
                DETECT_KINDS[index % len(DETECT_KINDS)],
                derive_seed(seed, f"detect-{shape}-{index}"),
                posed=True,
            )
            for index in range(DETECT_CLOUDS_PER_SHAPE)
            for shape in SHAPES
        ]
        return {"worlds": worlds, "cases": cases}

    def run_case(self, state: dict, case: inputs.Cloud) -> CaseOutput:
        world = state["worlds"][case.shape]
        started = time.perf_counter()
        report = score_points(
            world.model,
            ENCODING,
            case.cloud,
            world.canonical,
            world.record,
            seed=derive_seed(case.seed, "detect"),
            align=True,
        ).with_object_score(TOP_K)
        seconds = time.perf_counter() - started
        scores = report.per_point_scores
        _check(scores.shape == (len(case.cloud),), "score count does not match the cloud")
        _check(bool(np.isfinite(scores).all()) and np.isfinite(report.object_score), "scores are non-finite")
        return CaseOutput(
            seconds,
            len(case.cloud),
            {"scores": scores, "object_score": report.object_score, "converged": report.converged},
        )

    def quality(self, results: list[tuple[inputs.Cloud, dict]]) -> dict[str, float]:
        o_aurocs, p_aurocs = [], []
        for shape in SHAPES:
            rows = [(c, o) for c, o in results if c.shape == shape]
            object_labels = np.array([int(c.kind != "normal") for c, _ in rows])
            o_aurocs.append(auroc(np.array([o["object_score"] for _, o in rows]), object_labels))
            p_aurocs.append(
                auroc(
                    np.concatenate([o["scores"] for _, o in rows]),
                    np.concatenate([c.labels for c, _ in rows]),
                )
            )
        normal = np.concatenate([o["scores"] for c, o in results if c.kind == "normal"])
        return {
            "o_auroc": float(np.mean(o_aurocs)),
            "p_auroc": float(np.mean(p_aurocs)),
            "align_converged_frac": float(np.mean([o["converged"] for _, o in results])),
            # Mean |f| on normal clouds: alignment residual plus model
            # error.  Steadier across seeds than 1 - P-AUROC, which moves
            # by 15% with where the defects land.
            "normal_score_mean": float(normal.mean()),
            "quality_error": float(normal.mean()),
        }


# ---------------------------------------------------------------------------
# repair: dense 128^3 field, marching cubes, Newton projection, exact EMD.

# (shape, defect) per case; every run repairs both shapes and both defects.
REPAIR_CASES = (("torus", "dent"), ("blob", "crop"))


class Repair:
    name = "repair"
    # No untimed case: one case runs about 15 s, so a warm-up case would
    # cost a third of the run, and first-call costs are a small share of it.
    warm_up_s = 0.0
    aliases = {"case_ms_p50": ("repair_s_p50", 1e-3, "s")}
    spans = (
        "repair.repair",
        "marching.evaluate_field",
        "marching.marching_cubes",
        "mesh.sample_surface",
        "network.forward",
        "encoding.positional_encode",
        "repair.repair_quality",
        "repair.emd",
        "assignment.solve_assignment",
        "geometry.chamfer_metric",
        "checkpoint.load_checkpoint",
    )
    verify = _check_fixtures

    def setup(self, seed: int) -> dict:
        worlds = {kind: inputs.load_world(kind, seed) for kind in SHAPES}
        cases = [
            inputs.make_cloud(worlds[shape], kind, derive_seed(seed, f"repair-{shape}-{kind}"), posed=False)
            for shape, kind in REPAIR_CASES
        ]
        return {"worlds": worlds, "cases": cases}

    def run_case(self, state: dict, case: inputs.Cloud) -> CaseOutput:
        world = state["worlds"][case.shape]
        # Repair to the input's own size: chamfer_metric sums over points,
        # so a fixed larger count would inflate it through the count alone.
        n_points = len(case.cloud)
        started = time.perf_counter()
        result = repair(
            case.cloud,
            world.model,
            ENCODING,
            world.canonical,
            world.record,
            seed=derive_seed(case.seed, "repair"),
            resolution=RESOLUTION,
            n_points=n_points,
            align=False,
        )
        quality = repair_quality(
            result.repaired,
            case.reference,
            seed=derive_seed(case.seed, "quality"),
            emd_subsample=EMD_SUBSAMPLE,
        )
        seconds = time.perf_counter() - started
        points = result.repaired.points
        _check(len(result.mesh.faces) > 0, "repair mesh is empty")
        _check(points.shape == (n_points, 3), f"repaired cloud has {len(points)} points, not {n_points}")
        _check(bool(np.isfinite(points).all()), "repaired cloud is non-finite")
        return CaseOutput(
            seconds,
            RESOLUTION**3,
            {"chamfer": quality.chamfer, "emd": quality.emd, "faces": len(result.mesh.faces)},
        )

    def quality(self, results: list[tuple[inputs.Cloud, dict]]) -> dict[str, float]:
        outputs = [o for _, o in results]
        chamfer = float(np.mean([o["chamfer"] for o in outputs]))
        return {
            "chamfer_after": chamfer,
            "emd_after": float(np.mean([o["emd"] for o in outputs])),
            "quality_error": chamfer,
        }


WORKLOADS = {w.name: w for w in (Train(), Detect(), Repair())}
