"""Pairwise-disagreement distance between clusterings and the l-mean objective."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyInput, InvalidArgument, SizeMismatch
from .model import Clustering


@dataclass(frozen=True)
class ConsensusObjective:
    """Value of the l-mean objective over a set of distances."""

    ell: float
    value: float


def _check_same_n(a: Clustering, b: Clustering) -> int:
    if a.n != b.n:
        raise SizeMismatch(f"clusterings over {a.n} and {b.n} points")
    return a.n


def dist(a: Clustering, b: Clustering) -> int:
    """Number of unordered pairs co-clustered in exactly one of a, b.

    Direct O(n^2) pair enumeration; kept as the reference implementation
    that :func:`dist_fast` is checked against.
    """
    n = _check_same_n(a, b)
    la, lb = a.labels, b.labels
    out = 0
    for i in range(n):
        ai, bi = la[i], lb[i]
        for j in range(i + 1, n):
            if (ai == la[j]) != (bi == lb[j]):
                out += 1
    return out


def _pairs_sum(counts: np.ndarray) -> int:
    """Sum of C(c, 2) over the counts, exact in int64 for counts below 3e9."""
    c = counts.astype(np.int64, copy=False)
    return int((c * (c - 1) // 2).sum())


def dist_labels(la: np.ndarray, lb: np.ndarray) -> int:
    """:func:`dist` between two non-negative label arrays of equal length.

    Labels need not be normalized.  Points with the same label in both
    arrays fill only the diagonal of the contingency table, which one
    bincount counts; only the points whose labels differ are sorted.
    """
    if la.shape[0] == 0:
        return 0
    same = la == lb
    diag = np.bincount(la[same])
    differ = ~same
    off_key = la[differ] * (int(lb.max()) + 1) + lb[differ]
    off = np.unique(off_key, return_counts=True)[1]
    sum_ab = _pairs_sum(diag) + _pairs_sum(off)
    return _pairs_sum(np.bincount(la)) + _pairs_sum(np.bincount(lb)) - 2 * sum_ab


def dist_fast(a: Clustering, b: Clustering) -> int:
    """Same count as :func:`dist` via the contingency-table identity.

    dist = sum C(|A_i|,2) + sum C(|B_j|,2) - 2 sum C(|A_i ∩ B_j|,2),
    computed in near-linear time.
    """
    _check_same_n(a, b)
    return dist_labels(a.labels_array(), b.labels_array())


def check_exponent(ell: float) -> None:
    """Raise :class:`InvalidArgument` unless ell is a number >= 1 or inf."""
    if math.isnan(ell) or ell < 1:
        raise InvalidArgument(f"exponent must be >= 1 or inf, got {ell!r}")


def lmean(dists: Sequence[int], ell: float) -> ConsensusObjective:
    """(sum d_i^ell)^(1/ell) for finite ell >= 1; max(d_i) for ell = inf.

    Large finite exponents are computed in max-factored form to avoid
    overflow: M * (sum (d_i/M)^ell)^(1/ell).
    """
    ds = list(dists)
    if not ds:
        raise EmptyInput("lmean of no distances")
    check_exponent(ell)
    if ell == math.inf:
        return ConsensusObjective(ell=math.inf, value=float(max(ds)))
    if ell == 1:
        return ConsensusObjective(ell=1, value=float(sum(ds)))
    m = max(ds)
    if m == 0:
        return ConsensusObjective(ell=ell, value=0.0)
    acc = math.fsum((d / m) ** ell for d in ds)
    return ConsensusObjective(ell=ell, value=m * acc ** (1.0 / ell))


def objective_key(dists: Sequence[int], ell: float):
    """Comparable key, monotone in the l-mean objective for fixed ell.

    Exact integer arithmetic for ell = 1, ell = inf, and integer ell
    (compares sum d^ell, skipping the 1/ell root); floats otherwise.
    """
    if ell == math.inf:
        return max(dists)
    if ell == 1:
        return sum(dists)
    if float(ell).is_integer():
        e = int(ell)
        return sum(int(d) ** e for d in dists)
    return lmean(dists, ell).value
