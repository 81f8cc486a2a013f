"""Deterministic floating-point accumulation helpers.

Quadrature results must be bit-identical across runs, so node contributions
inside a cell are combined with compensated (Kahan) summation (one row at a
time, or many rows at once with the same operations per row) and cell values
are combined across the mesh with a fixed pairwise binary tree, so the
rounding path depends only on the mesh.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated sum of a (small) iterable of floats."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = float(v) - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def kahan_rows(terms: np.ndarray) -> np.ndarray:
    """kahan_sum over the last axis of an array, vectorised over the leading
    axes: every entry goes through the same IEEE operations, in the same
    order, as kahan_sum of that row."""
    if terms.shape[-1] == 1:
        # the one step of the loop below: 0 + (t - 0), carry unused
        return terms[..., 0] + 0.0
    total = np.zeros(terms.shape[:-1])
    carry = np.zeros_like(total)
    for i in range(terms.shape[-1]):
        y = terms[..., i] - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def tree_sum(values: Sequence[float]) -> float:
    """Sum by a fixed pairwise binary reduction tree.

    The tree shape depends only on ``len(values)``, so the rounding path is
    independent of how the values were produced.
    """
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        paired = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            paired.append(vals[-1])
        vals = paired
    return vals[0]
