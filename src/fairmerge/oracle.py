"""Exhaustive ground-truth optima over all set partitions of small n.

Partitions are enumerated as restricted-growth label strings in
lexicographic order.  The solvers scan every partition, keep those passing
the fair or balanced filter, and fold an exact minimum, so they certify
optimality and approximation ratios for anything the algorithms produce at
desk scale.  The scan is vectorized in chunks; n is hard-capped at 13
(about 2.8e7 partitions, minutes of work) and the cap can be lowered via
the FAIRMERGE_ORACLE_CAP environment variable for CI.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .distance import lmean
from .errors import EmptyInput, InfeasibleFairness, InvalidArgument, ParseError, TooLarge
from .model import (
    Clustering,
    ColoredInstance,
    check_size,
    normalize,
    validate_balance_feasible,
    validate_feasible,
)

HARD_CAP = 13
CONSENSUS_CAP = 12
BELL_NUMBERS = [
    1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437,
]

_matrix_cache: dict[int, np.ndarray] = {}


def oracle_cap() -> int:
    cap = HARD_CAP
    env = os.environ.get("FAIRMERGE_ORACLE_CAP")
    if env:
        try:
            cap = min(cap, int(env))
        except ValueError:
            raise ParseError(f"FAIRMERGE_ORACLE_CAP must be an integer, got {env!r}") from None
    return cap


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with one witness partition and the enumeration count."""

    optimum: float
    argmin: Clustering
    partitions_enumerated: int


def enum_partitions(n: int) -> Iterator[Clustering]:
    """Every partition of {0..n-1} exactly once, in restricted-growth
    lexicographic order."""
    if n < 0:
        raise InvalidArgument(f"n must be non-negative, got {n}")
    if n > oracle_cap():
        raise TooLarge(f"n = {n} exceeds the enumeration cap {oracle_cap()}")
    if n == 0:
        yield Clustering((), 0)
        return
    a = [0] * n
    while True:
        yield Clustering(tuple(a), max(a) + 1)
        i = n - 1
        while i > 0 and a[i] > max(a[:i]):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0


def _grow(m: np.ndarray, maxlab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``m`` followed by every label it allows next (0 .. its max label
    ``maxlab`` + 1), in lexicographic order; returns the rows and their max labels."""
    reps = maxlab.astype(np.int64) + 2
    ends = np.cumsum(reps)
    newcol = (np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - reps, reps)).astype(np.int8)
    grown = np.concatenate([np.repeat(m, reps, axis=0), newcol[:, None]], axis=1)
    return grown, np.maximum(np.repeat(maxlab, reps), newcol)


def _labels_matrix(n: int) -> np.ndarray:
    """All restricted-growth strings of length n as one int8 matrix."""
    if n in _matrix_cache:
        return _matrix_cache[n]
    if n == 0:
        m = np.zeros((1, 0), dtype=np.int8)
    else:
        m = np.zeros((1, 1), dtype=np.int8)
        maxlab = np.zeros(1, dtype=np.int8)
        for _ in range(1, n):
            m, maxlab = _grow(m, maxlab)
    if n <= 12:
        _matrix_cache[n] = m
    return m


def _label_chunks(n: int, chunk_rows: int = 1 << 20) -> Iterator[np.ndarray]:
    """Enumeration-order row chunks of the length-n label matrix.

    n = 13 is expanded lazily from the cached n = 12 matrix to bound memory.
    """
    if n <= 12:
        m = _labels_matrix(n)
        for a in range(0, m.shape[0], chunk_rows):
            yield m[a : a + chunk_rows]
        return
    base = _labels_matrix(12)
    maxlab = base.max(axis=1)
    step = max(1, chunk_rows // 16)
    for a in range(0, base.shape[0], step):
        yield _grow(base[a : a + step], maxlab[a : a + step])[0]


def _pair_bits(chunk: np.ndarray) -> np.ndarray:
    """Co-membership bit per unordered pair, one row per partition."""
    rows, n = chunk.shape
    out = np.empty((rows, n * (n - 1) // 2), dtype=bool)
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            out[:, t] = chunk[:, i] == chunk[:, j]
            t += 1
    return out


def _bits_of(instance: ColoredInstance, clustering: Clustering) -> np.ndarray:
    check_size(instance, clustering)
    return _pair_bits(clustering.labels_array()[None, :].astype(np.int8))[0]


def _color_counts(chunk: np.ndarray, blue_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, n = chunk.shape
    blue = np.zeros((rows, max(n, 1)), dtype=np.int32)
    red = np.zeros_like(blue)
    ridx = np.arange(rows)
    for i in range(n):
        tgt = blue if blue_mask[i] else red
        tgt[ridx, chunk[:, i]] += 1
    return blue, red


def _fair_mask(chunk: np.ndarray, instance: ColoredInstance) -> np.ndarray:
    blue, red = _color_counts(chunk, instance.role_blue_mask)
    return np.all(blue * instance.q == red * instance.p, axis=1)


def _balanced_mask(chunk: np.ndarray, instance: ColoredInstance) -> np.ndarray:
    blue, red = _color_counts(chunk, instance.role_blue_mask)
    return np.all((blue % instance.p == 0) & (red % instance.q == 0), axis=1)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise TooLarge(f"n = {n} exceeds the enumeration cap {cap}")


def _closest_filtered(
    instance: ColoredInstance, clustering: Clustering, mask_fn
) -> OracleResult:
    n = instance.n
    bits = _bits_of(instance, clustering)
    best_val: int | None = None
    best_row: np.ndarray | None = None
    total = 0
    for chunk in _label_chunks(n):
        mask = mask_fn(chunk, instance)
        if mask.any():
            rows_idx = np.flatnonzero(mask)
            d = np.count_nonzero(_pair_bits(chunk[rows_idx]) != bits, axis=1)
            j = int(np.argmin(d))
            v = int(d[j])
            if best_val is None or v < best_val:
                best_val = v
                best_row = chunk[rows_idx[j]].copy()
        total += chunk.shape[0]
    if best_val is None:
        raise InfeasibleFairness("no partition passes the filter")
    return OracleResult(
        optimum=best_val,
        argmin=normalize(best_row.astype(np.int64), n),
        partitions_enumerated=total,
    )


def oracle_closest_fair(instance: ColoredInstance, clustering: Clustering) -> OracleResult:
    """Minimum distance from ``clustering`` to any fair partition, exactly."""
    _check_cap(instance.n, oracle_cap())
    validate_feasible(instance)
    return _closest_filtered(instance, clustering, _fair_mask)


def oracle_closest_balanced(instance: ColoredInstance, clustering: Clustering) -> OracleResult:
    """Minimum distance from ``clustering`` to any balanced partition, exactly."""
    _check_cap(instance.n, oracle_cap())
    validate_balance_feasible(instance)
    return _closest_filtered(instance, clustering, _balanced_mask)


def _objective_vector(dmat: list[np.ndarray], ell: float, m: int, n: int) -> np.ndarray | list:
    if ell == math.inf:
        out = dmat[0]
        for d in dmat[1:]:
            out = np.maximum(out, d)
        return out
    if ell == 1:
        return sum(d.astype(np.int64) for d in dmat)
    if float(ell).is_integer():
        e = int(ell)
        worst = (n * (n - 1) // 2) ** e * m
        if worst < 2**62:
            return sum(d.astype(np.int64) ** e for d in dmat)
        cols = len(dmat[0])
        return [sum(int(d[r]) ** e for d in dmat) for r in range(cols)]
    acc = sum(d.astype(np.float64) ** ell for d in dmat)
    return acc


def oracle_consensus(
    instance: ColoredInstance, clusterings: Sequence[Clustering], ell: float
) -> OracleResult:
    """Exact minimizer of the l-mean objective over all fair partitions."""
    if not clusterings:
        raise EmptyInput("consensus oracle over no clusterings")
    _check_cap(instance.n, min(oracle_cap(), CONSENSUS_CAP))
    validate_feasible(instance)
    n = instance.n
    m = len(clusterings)
    bits = [_bits_of(instance, d) for d in clusterings]
    best_key = None
    best_dists: list[int] | None = None
    total = 0
    for chunk in _label_chunks(n):
        mask = _fair_mask(chunk, instance)
        if mask.any():
            rows_idx = np.flatnonzero(mask)
            pb = _pair_bits(chunk[rows_idx])
            dmat = [np.count_nonzero(pb != b, axis=1) for b in bits]
            keys = _objective_vector(dmat, ell, m, n)
            if isinstance(keys, list):
                j = min(range(len(keys)), key=lambda r: keys[r])
            else:
                j = int(np.argmin(keys))
            v = keys[j]
            if best_key is None or v < best_key:
                best_key = v
                best_dists = [int(d[j]) for d in dmat]
                best_row = chunk[rows_idx[j]].copy()
        total += chunk.shape[0]
    if best_key is None:
        raise InfeasibleFairness("no fair partition exists")
    return OracleResult(
        optimum=lmean(best_dists, ell).value,
        argmin=normalize(best_row.astype(np.int64), n),
        partitions_enumerated=total,
    )
