"""Deterministic instance generators.

Randomness comes from a self-contained splitmix-style 64-bit generator so
that a seed pins the emitted instance bit for bit, independent of the host
language or library versions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidArgument, NotDivisibleBy3, OutOfRangeElement
from .model import Clustering, Color, ColoredInstance, _ratio_part, normalize

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: additive 0x9E3779B97F4A7C15 walk with two xor-shift mixes."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish value in [0, bound) by modulo; bias is irrelevant here."""
        return self.next_u64() % bound

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64_draws(seed: int, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start + count - 1`` of ``SplitMix64(seed)`` as uint64.

    The walk has the closed form state_i = seed + (i + 1) * gamma mod 2^64,
    and uint64 arithmetic wraps the same way, so the whole stream is a few
    array operations.  Only ``np.uint64`` scalars meet the arrays: mixing a
    uint64 array with a Python int promotes to float64 on older numpy.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _shuffled(xs: list, seed: int, start: int) -> list:
    """``SplitMix64.shuffle`` of ``xs`` on draws from ``start``, in place."""
    top = len(xs) - 1
    bounds = np.arange(top + 1, 1, -1, dtype=np.uint64)  # i + 1 for i = top .. 1
    for i, j in zip(range(top, 0, -1), (splitmix64_draws(seed, start, top) % bounds).tolist()):
        xs[i], xs[j] = xs[j], xs[i]
    return xs


def _integers(what: str, values) -> tuple[int, ...]:
    """``values`` as Python ints; :class:`InvalidArgument` unless all are integers, not bools."""
    try:
        xs = tuple(values)
    except TypeError:
        xs = (None,)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in xs):
        raise InvalidArgument(f"{what} must be integers, got {values!r}")
    return tuple(map(int, xs))


def gen_random(
    n: int, p: int, q: int, k_clusters: int, seed: int
) -> tuple[ColoredInstance, Clustering]:
    """Random feasible instance plus a random clustering, fixed by the seed.

    Color totals are set exactly to the ratio (n must split into p + q
    shares after reduction); points land in k nonempty clusters.  The
    draws are those of one ``SplitMix64(seed)``: a shuffle of the colors,
    a shuffle of the point order, then one label per remaining point.
    Raises :class:`InvalidArgument` for a ratio part that is not a positive
    integer, and for an n, k or seed that is not an integer.
    """
    p, q = _ratio_part(p), _ratio_part(q)
    n, k_clusters, seed = _integers("n, k_clusters and seed", (n, k_clusters, seed))
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if n < p + q:
        raise Infeasible(f"n = {n} cannot host ratio {p}:{q}")
    if n % (p + q):
        raise Infeasible(f"n = {n} does not split into exact {p}:{q} totals")
    if not 1 <= k_clusters <= n:
        raise Infeasible(f"cannot form {k_clusters} nonempty clusters of {n} points")
    t = n // (p + q)
    blue = np.array(_shuffled([True] * (p * t) + [False] * (q * t), seed, 0), dtype=bool)
    order = np.array(_shuffled(list(range(n)), seed, n - 1), dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    labels[order[:k_clusters]] = np.arange(k_clusters)
    drawn = splitmix64_draws(seed, 2 * (n - 1), n - k_clusters) % np.uint64(k_clusters)
    labels[order[k_clusters:]] = drawn.astype(np.int64)
    colors = np.where(blue, ord("B"), ord("R")).astype(np.uint8).tobytes().decode("ascii")
    instance = ColoredInstance.from_colors(colors, p, q)
    return instance, normalize(labels, n)


@dataclass(frozen=True)
class ReductionInstance:
    """Clustered encoding of a 3-partition multiset, with its threshold.

    The emitted clustering has one all-blue cluster of size p*T per triple
    slot and one all-red cluster per element (size x_j, scaled by q when
    q > 1).  The instance admits a fair clustering within distance tau iff
    the multiset splits into triples of equal sum.
    """

    elements: tuple[int, ...]
    p: int
    q: int
    t_sum: int
    tau: float
    instance: ColoredInstance
    clustering: Clustering
    oracle_verifiable: bool
    experimental: bool


def gen_3partition_reduction(elements, p: int, q: int = 1) -> ReductionInstance:
    """Encode a 3-partition multiset as a closest-fair decision instance."""
    xs = _integers("3-partition elements", elements)
    p, q = _integers("ratio parts", (p, q))
    if p < 2:
        raise Infeasible("reduction needs p >= 2")
    if q < 1 or math.gcd(p, q) != 1 or (q > 1 and p <= q):
        raise Infeasible(f"ratio {p}:{q} is not a reduced ratio with p > q")
    if len(xs) == 0 or len(xs) % 3:
        raise NotDivisibleBy3(f"element count {len(xs)} is not a positive multiple of 3")
    triples = len(xs) // 3
    total = sum(xs)
    if total % triples:
        raise NotDivisibleBy3(f"sum {total} does not split into {triples} equal triples")
    t_sum = total // triples
    for x in xs:
        if not (4 * x > t_sum and 2 * x < t_sum):
            raise OutOfRangeElement(f"element {x} outside ({t_sum}/4, {t_sum}/2)")

    if q == 1:
        if p >= 3:
            tau: float = sum(x * (t_sum - x) for x in xs) / 2 + triples * p * t_sum * t_sum
        else:
            tau = p * sum(x * x for x in xs) + p * p * sum(x * (t_sum - x) for x in xs) / 2
    else:
        tau = p * q * sum(x * x for x in xs) + p * p * sum(x * (t_sum - x) for x in xs) / 2
    if float(tau).is_integer():
        tau = int(tau)

    colors: list[Color] = []
    labels: list[int] = []
    lab = 0
    for _ in range(triples):
        colors += [Color.BLUE] * (p * t_sum)
        labels += [lab] * (p * t_sum)
        lab += 1
    for x in xs:
        size = q * x
        colors += [Color.RED] * size
        labels += [lab] * size
        lab += 1
    instance = ColoredInstance.from_colors(colors, p, q)
    verifiable = instance.n <= 13
    if not verifiable:
        warnings.warn(
            f"reduction instance has {instance.n} points; exhaustive verification "
            "is unavailable beyond 13, only the approximation pipeline can run",
            RuntimeWarning,
            stacklevel=2,
        )
    return ReductionInstance(
        elements=xs,
        p=p,
        q=q,
        t_sum=t_sum,
        tau=tau,
        instance=instance,
        clustering=normalize(labels, instance.n),
        oracle_verifiable=verifiable,
        experimental=q > 1,
    )
