"""Colored point sets, clusterings, and per-cluster counting arithmetic.

Points are identified by index 0..n-1.  Every point carries one of two
colors, and the whole set carries an irreducible target ratio p/q between
blue and red counts.  By convention the role called "blue" is always the
majority color: if the raw input has more red than blue points, the
constructor swaps the color roles and the ratio, and records that it did
so.  All algorithms downstream rely on p >= q.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InfeasibleFairness, InvalidArgument, LengthMismatch, SizeMismatch


class Color(Enum):
    RED = "R"
    BLUE = "B"


_COLOR_OF = (Color.RED, Color.BLUE)

# byte -> 0 (red), 1 (blue) or 2 (not a color), for one-pass string parsing
_COLOR_CODE = np.full(256, 2, dtype=np.uint8)
_COLOR_CODE[[ord("R"), ord("r")]] = 0
_COLOR_CODE[[ord("B"), ord("b")]] = 1

# normalize relabels through a table indexed by label value when every
# label lies in [0, _DENSE_FACTOR * n)
_DENSE_FACTOR = 4


def _coerce_color(c) -> Color:
    if isinstance(c, Color):
        return c
    if c in ("R", "r"):
        return Color.RED
    if c in ("B", "b"):
        return Color.BLUE
    raise InvalidArgument(f"not a color: {c!r}")


def _blue_of(colors: Iterable) -> np.ndarray:
    """Bool mask, True where the given color is blue."""
    if isinstance(colors, str):
        code = _COLOR_CODE[np.frombuffer(colors.encode("ascii", "replace"), dtype=np.uint8)]
        if code.shape[0] and code.max() > 1:
            for c in colors:
                _coerce_color(c)  # raises on the first bad character
        return code == 1
    blue, red = Color.BLUE, Color.RED
    return np.fromiter(
        (c is blue or (c is not red and _coerce_color(c) is blue) for c in colors), dtype=bool
    )


def _ratio_part(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 1:
        raise InvalidArgument(f"ratio parts must be positive integers, got {x!r}")
    return int(x)


@dataclass(frozen=True, eq=False)
class ColoredInstance:
    """The point universe: one read-only color mask plus the working ratio.

    ``blue_mask[i]`` is True when point ``i`` is given as blue.  ``p``/``q``
    are the irreducible ratio after the majority-role swap, so ``p >= q``
    whenever a fair clustering can exist.  ``given_p``/``given_q`` keep the
    ratio exactly as supplied, for display and serialization.  Build
    instances through :meth:`from_colors`.
    """

    blue_mask: np.ndarray
    p: int
    q: int
    swapped: bool
    given_p: int
    given_q: int

    @classmethod
    def from_colors(cls, colors: Iterable, p: int, q: int) -> "ColoredInstance":
        """Instance from a string over ``RBrb`` or an iterable of colors.

        Raises :class:`InvalidArgument` for a value that is not a color and
        for a ratio part that is not a positive integer.
        """
        given_p, given_q = _ratio_part(p), _ratio_part(q)
        blue = _blue_of(colors)
        blue.flags.writeable = False
        g = math.gcd(given_p, given_q)
        p, q = given_p // g, given_q // g
        swapped = 2 * int(np.count_nonzero(blue)) < blue.shape[0]
        if swapped:
            p, q = q, p
        return cls(blue_mask=blue, p=p, q=q, swapped=swapped, given_p=given_p, given_q=given_q)

    @property
    def n(self) -> int:
        return self.blue_mask.shape[0]

    @cached_property
    def colors(self) -> tuple[Color, ...]:
        """The given colors as one ``Color`` per point, built on first use."""
        return tuple(map(_COLOR_OF.__getitem__, self.blue_mask.tolist()))

    def color_string(self) -> str:
        """The given colors as a string over ``R``/``B``."""
        return np.where(self.blue_mask, ord("B"), ord("R")).astype(np.uint8).tobytes().decode("ascii")

    @cached_property
    def role_blue_mask(self) -> np.ndarray:
        if not self.swapped:
            return self.blue_mask
        mask = ~self.blue_mask
        mask.flags.writeable = False
        return mask

    @cached_property
    def blue_total(self) -> int:
        return int(np.count_nonzero(self.role_blue_mask))

    @cached_property
    def red_total(self) -> int:
        return self.n - self.blue_total

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredInstance):
            return NotImplemented
        return (self.p, self.q, self.swapped, self.given_p, self.given_q) == (
            other.p, other.q, other.swapped, other.given_p, other.given_q
        ) and np.array_equal(self.blue_mask, other.blue_mask)

    def __hash__(self) -> int:
        return hash((self.blue_mask.tobytes(), self.p, self.q, self.given_p, self.given_q))


def _label_array(labels, copy: bool) -> np.ndarray:
    try:
        arr = np.array(labels, dtype=np.int64) if copy else np.asarray(labels, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"labels must be integers in the int64 range: {exc}") from None
    if arr.ndim != 1:
        raise LengthMismatch("labels must be a flat sequence")
    return arr


class Clustering:
    """A partition of 0..n-1 as one read-only int64 label per point.

    Labels are contiguous ints 0..k-1 assigned by first occurrence; build
    instances through :func:`normalize` so this invariant always holds.
    Every cluster is nonempty.  The array is the only stored form; the
    tuple view ``labels`` is built on first use.
    """

    def __init__(self, labels: Sequence[int] | np.ndarray, k: int) -> None:
        arr = _label_array(labels, copy=True)
        arr.flags.writeable = False
        self._array = arr
        self._k = int(k)

    @classmethod
    def _adopt(cls, arr: np.ndarray, k: int) -> "Clustering":
        """Wrap a fresh int64 array without copying it; it becomes read-only."""
        out = cls.__new__(cls)
        arr.flags.writeable = False
        out._array = arr
        out._k = k
        return out

    @property
    def k(self) -> int:
        return self._k

    @property
    def n(self) -> int:
        return self._array.shape[0]

    def labels_array(self) -> np.ndarray:
        """The read-only label array itself; no copy."""
        return self._array

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """One label per point as Python ints."""
        return tuple(self._array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return self._k == other._k and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self._k, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"Clustering(labels={self.labels!r}, k={self._k})"


def _first_occurrence_dense(arr: np.ndarray, hi: int) -> tuple[np.ndarray, int]:
    """First-occurrence relabel of labels in [0, hi], through a value table."""
    n = arr.shape[0]
    first = np.full(hi + 1, n, dtype=np.int64)
    np.minimum.at(first, arr, np.arange(n, dtype=np.int64))
    is_first = np.zeros(n, dtype=bool)
    is_first[first[first < n]] = True
    rank = np.cumsum(is_first, dtype=np.int64) - 1
    return rank[first[arr]], int(rank[-1]) + 1


def _first_occurrence_sorted(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """First-occurrence relabel of any int64 labels, by sorting."""
    _, first_idx, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    return rank[inverse.reshape(-1)], int(order.shape[0])


def normalize(labels: Sequence[int] | np.ndarray, n: int | None = None) -> Clustering:
    """Relabel a raw label sequence to contiguous ids by first occurrence.

    Idempotent; preserves the induced partition.  Labels in [0, 4n) take a
    linear path through a table indexed by label value; others are sorted.
    Raises :class:`LengthMismatch` when ``n`` is given and does not match,
    and :class:`InvalidArgument` for labels outside the int64 range.
    """
    arr = _label_array(labels, copy=False)  # only read: the result is a new array
    if n is not None and arr.shape[0] != n:
        raise LengthMismatch(f"expected {n} labels, got {arr.shape[0]}")
    if arr.shape[0] == 0:
        return Clustering._adopt(np.empty(0, dtype=np.int64), 0)
    lo, hi = int(arr.min()), int(arr.max())
    if lo >= 0 and hi < _DENSE_FACTOR * arr.shape[0]:
        new, k = _first_occurrence_dense(arr, hi)
    else:
        new, k = _first_occurrence_sorted(arr)
    return Clustering._adopt(new, k)


def check_size(instance: ColoredInstance, clustering: Clustering) -> None:
    """Raise :class:`SizeMismatch` unless the clustering has one label per instance point."""
    if clustering.n != instance.n:
        raise SizeMismatch(f"clustering over {clustering.n} points for an instance of {instance.n}")


def _role_counts(instance: ColoredInstance, clustering: Clustering) -> tuple[np.ndarray, np.ndarray]:
    """Blue-role and red-role point counts per cluster, from one bincount."""
    check_size(instance, clustering)
    key = clustering.labels_array() * 2 + instance.role_blue_mask
    both = np.bincount(key, minlength=2 * clustering.k)
    return both[1::2], both[0::2]


def _divmod(counts: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``counts // m`` and ``counts % m`` for counts in [0, n], any m >= 1.

    A modulus above n acts like n + 1 on such counts, which keeps it in int64.
    """
    return np.divmod(counts, min(m, n + 1))


class StatsColumns:
    """Per-cluster counts as read-only numpy columns, one entry per cluster.

    ``red`` and ``blue`` count each cluster's red-role and blue-role points;
    ``s_r`` and ``s_b`` are their surpluses, ``red % q`` and ``blue % p``.
    """

    def __init__(self, red: np.ndarray, blue: np.ndarray, p: int, q: int, n: int) -> None:
        self.red, self.blue = red, blue
        self.s_r = _divmod(red, q, n)[1]
        self.s_b = _divmod(blue, p, n)[1]
        for col in (self.red, self.blue, self.s_r, self.s_b):
            col.flags.writeable = False


def all_stats(instance: ColoredInstance, clustering: Clustering) -> StatsColumns:
    """Per-cluster counts and surpluses for the whole clustering in one pass."""
    blue, red = _role_counts(instance, clustering)
    return StatsColumns(red, blue, instance.p, instance.q, instance.n)


def validate_feasible(instance: ColoredInstance) -> None:
    """Check that a fair clustering over the whole set can exist.

    Requires the blue total to be a multiple of p, the red total a multiple
    of q, and the totals to sit in exact ratio p/q.
    """
    b, r, p, q = instance.blue_total, instance.red_total, instance.p, instance.q
    if b % p != 0 or r % q != 0 or b * q != r * p:
        raise InfeasibleFairness(
            f"totals blue={b}, red={r} incompatible with ratio {p}/{q}"
        )


def validate_balance_feasible(instance: ColoredInstance) -> None:
    """Check that a balanced clustering over the whole set can exist."""
    b, r, p, q = instance.blue_total, instance.red_total, instance.p, instance.q
    if b % p != 0 or r % q != 0:
        raise InfeasibleFairness(
            f"totals blue={b}, red={r} not multiples of p={p}, q={q}"
        )


def is_fair(instance: ColoredInstance, clustering: Clustering) -> bool:
    """True when every cluster's blue:red ratio equals p/q exactly.

    With p, q coprime, blue * q == red * p exactly when p divides blue, q
    divides red and the quotients agree; that form cannot overflow.
    """
    blue, red = _role_counts(instance, clustering)
    b_units, s_b = _divmod(blue, instance.p, instance.n)
    r_units, s_r = _divmod(red, instance.q, instance.n)
    return bool(np.all((s_b == 0) & (s_r == 0) & (b_units == r_units)))


def is_balanced(instance: ColoredInstance, clustering: Clustering) -> bool:
    """True when every cluster has blue divisible by p and red by q."""
    blue, red = _role_counts(instance, clustering)
    s_b = _divmod(blue, instance.p, instance.n)[1]
    s_r = _divmod(red, instance.q, instance.n)[1]
    return bool(np.all((s_b == 0) & (s_r == 0)))
