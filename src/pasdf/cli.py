"""Command line entry point.

Exit codes: 0 success, 1 any other pasdf error, 2 input error, 3 numeric
failure, 4 artifact mismatch, 5 validation error.  Log lines go to
stderr; every artifact the commands write is timestamp-free, so reruns
with the same config and seed reproduce outputs byte for byte.
"""
from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from typing import Sequence

from . import pipeline
from .bench import metrics_table, run_bench
from .config import load_config
from .errors import (
    CheckpointMismatchError,
    ConfigValidationError,
    InvalidInputError,
    InvalidParameterError,
    PasdfError,
    TrainingDivergedError,
    UndefinedMetricError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_ARTIFACT = 4
EXIT_VALIDATION = 5

# Exit code per error kind; the first matching row wins.
_EXIT_CODES = (
    ((FileNotFoundError, InvalidInputError, UndefinedMetricError), EXIT_INPUT),
    ((TrainingDivergedError,), EXIT_NUMERIC),
    ((CheckpointMismatchError,), EXIT_ARTIFACT),
    ((ConfigValidationError, InvalidParameterError), EXIT_VALIDATION),
    ((PasdfError,), EXIT_FAILURE),
)

_COMMANDS = (
    ("prepare", "align training clouds and write the labelled sample file"),
    ("train", "fit the distance field and write a checkpoint"),
    ("detect", "score test clouds and write score maps"),
    ("repair", "reconstruct clean stand-ins for detected clouds at detect's poses"),
    ("eval", "recompute dataset metrics from detect artifacts"),
    ("bench", "run the synthetic end-to-end benchmark"),
)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, io=replace(config.io, out_dir=args.out))
        return _run(args, config)
    except (FileNotFoundError, PasdfError) as error:
        print(f"error: {error}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(error, kinds))


def _run(args: argparse.Namespace, config) -> int:
    if args.command == "prepare":
        prepared = pipeline.cmd_prepare(config, canonical_id=args.canonical)
        print(
            f"prepared {prepared.n_records} records from "
            f"{len(prepared.train_ids)} clouds (canonical {prepared.canonical_id})"
        )
    elif args.command == "train":
        trained = pipeline.cmd_train(config)
        loss = "n/a" if math.isnan(trained.final_loss) else f"{trained.final_loss:.6f}"
        print(
            f"trained {trained.epochs_run} epochs (final loss {loss}) "
            f"-> {trained.checkpoint_path}"
        )
    elif args.command == "detect":
        detected = pipeline.cmd_detect(config)
        for case in detected.cases:
            flag = "" if case.converged else " (alignment not converged)"
            print(f"{case.id}: object score {case.object_score:.6f}{flag}")
    elif args.command == "repair":
        repaired = pipeline.cmd_repair(config)
        for case in repaired.cases:
            if case.failed:
                print(f"{case.id}: FAILED ({case.error})")
            elif case.chamfer is not None:
                print(f"{case.id}: chamfer {case.chamfer:.6f} emd {case.emd:.6f}")
            else:
                print(f"{case.id}: repaired -> {case.cloud}")
    elif args.command == "eval":
        evaluated = pipeline.cmd_eval(config)
        print(f"object AUROC {evaluated.o_auroc:.4f}")
        if evaluated.p_auroc is not None:
            print(f"point AUROC {evaluated.p_auroc:.4f}")
    elif args.command == "bench":
        result = run_bench(config, out_dir=config.io.out_dir)
        print(metrics_table(result), end="")
    return EXIT_OK


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="pasdf",
        description="Pose-aligned signed-distance-field anomaly pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="JSON run configuration")
        sub.add_argument("--seed", type=int, default=None, help="override the root seed")
        sub.add_argument("--out", default=None, help="override the output directory")
        if name == "prepare":
            sub.add_argument(
                "--canonical",
                default=None,
                help="training cloud id to use as the canonical pose",
            )
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())
