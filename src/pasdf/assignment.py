"""Exact minimum-cost assignment.

A checked front end to scipy's Jonker-Volgenant solver over a dense
square cost matrix.  This is the workhorse behind the optimal-transport
distance between equal-size point sets.
"""
from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError
from .geometry import F64


def solve_assignment(cost: NDArray[F64]) -> tuple[NDArray[np.int_], float]:
    """Column assigned to each row under the minimum-total-cost bijection.

    Returns (assignment, total) where assignment[i] is the column matched
    to row i and total is the exact optimal cost.
    """
    matrix = np.ascontiguousarray(cost, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got {matrix.shape}")
    if matrix.size == 0:
        raise InvalidInputError("cost matrix must be non-empty")
    if not np.isfinite(matrix).all():
        raise InvalidInputError("cost matrix contains non-finite entries")

    # Imported here: scipy.optimize adds about 10 MB and 0.1 s to every
    # process that imports pasdf, and only repair quality needs it.
    from scipy.optimize import linear_sum_assignment

    rows, assignment = linear_sum_assignment(matrix)
    total = float(matrix[rows, assignment].sum())
    return assignment, total
