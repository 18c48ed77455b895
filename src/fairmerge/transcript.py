"""Replayable move records and the mutable cluster state behind the algorithms.

Every rebalancing algorithm works by moving sets of same-colored points
between clusters.  ``ClusterState`` applies those moves and appends each
one to its transcript's log, as plain integers.  The log prices all of its
moves together when a cost is first asked for: the cost of a move is the
exact change it causes in the pairwise-disagreement distance to a fixed
baseline clustering.  Because the costs telescope, their sum always equals
dist(baseline, final state), which is what makes transcripts auditable.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import BadClusterId, InvalidArgument, ReplayMismatch
from .model import Clustering, ColoredInstance, check_size, normalize


@dataclass(frozen=True)
class Move:
    """One transfer of ``points`` from cluster ``src`` to cluster ``dst``.

    ``cost`` is the exact change in distance to the transcript's baseline
    caused by this move, given every move logged before it.
    """

    points: tuple[int, ...]
    src: int
    dst: int
    cost: int


def _grouped(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Items grouped by key, by one stable sort.

    Returns the distinct keys ascending, each item's group (an index into
    them), and per item the sum of ``values`` over the earlier items with
    its key.
    """
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], values[order]
    before = np.cumsum(v) - v
    starts = np.ones(k.shape[0], dtype=bool)
    starts[1:] = k[1:] != k[:-1]
    first = np.flatnonzero(starts)
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    earlier = np.empty_like(v)
    earlier[order] = before - np.repeat(before[first], np.diff(first, append=k.shape[0]))
    return k[first], group, earlier


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.column_stack((a, b)).ravel()


class _MoveLog:
    """Moves as int64 columns, priced together on demand.

    Move ``i`` carried the next ``count[i]`` entries of ``points`` from
    cluster ``src[i]`` to ``dst[i]``.  Pricing needs only the baseline
    labels and cluster sizes, so the log does not keep the state alive.
    """

    __slots__ = ("src", "dst", "count", "points", "_base_labels", "_base_sizes", "_costs")

    def __init__(self, base_labels: np.ndarray, base_sizes: np.ndarray) -> None:
        self.src = array("q")
        self.dst = array("q")
        self.count = array("q")
        self.points = array("q")
        self._base_labels = base_labels
        self._base_sizes = base_sizes
        self._costs = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.src)

    def extend(self, src: np.ndarray, dst: np.ndarray, count: np.ndarray, points: np.ndarray) -> None:
        """Append moves given as int64 columns, points concatenated in move order."""
        for column, values in ((self.src, src), (self.dst, dst), (self.count, count), (self.points, points)):
            column.frombytes(values.astype(np.int64, copy=False).tobytes())

    def costs(self) -> np.ndarray:
        """Read-only int64 cost of every logged move, priced once per log length."""
        if self._costs.shape[0] != len(self.src):
            self._costs = self._price()
            self._costs.flags.writeable = False
        return self._costs

    def _price(self) -> np.ndarray:
        """Cost of each move: 2 m_src - c |src after| + c |dst before| - 2 m_dst.

        ``c`` points leave src and join dst; ``m_src`` counts the pairs of a
        moved point and a point left behind that share a baseline cluster,
        ``m_dst`` the same pairs with the points already in dst.  Both, and
        the cluster sizes, come from exclusive prefix sums over the log,
        grouped by cluster and by (cluster, baseline cluster).
        """
        # np.array copies: a view of a log array would stop it from growing
        src, dst, cnt = (np.array(a, dtype=np.int64) for a in (self.src, self.dst, self.count))
        m = src.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        base = self._base_sizes
        k = base.shape[0]
        size = np.zeros(max(k, int(src.max()) + 1, int(dst.max()) + 1), dtype=np.int64)
        size[:k] = base
        # net points a cluster gained in the moves before this one
        gained = _grouped(_interleave(src, dst), _interleave(-cnt, cnt))[2].reshape(m, 2)
        src_after = size[src] + gained[:, 0] - cnt
        dst_before = size[dst] + gained[:, 1]

        # (move, baseline cluster) groups: w points of origin g in move mv
        mv = np.repeat(np.arange(m, dtype=np.int64), cnt)
        origin = self._base_labels[np.array(self.points, dtype=np.int64)]
        pair, w = np.unique(mv * k + origin, return_counts=True)
        mv, g = np.divmod(pair, k)
        s, d = src[mv], dst[mv]
        # the same per (cluster, origin); a cluster starts with its own points
        gained = _grouped(_interleave(s * k + g, d * k + g), _interleave(-w, w))[2].reshape(-1, 2)
        in_src = np.where(s == g, base[g], 0) + gained[:, 0] - w  # after the move
        in_dst = np.where(d == g, base[g], 0) + gained[:, 1]  # before the move
        first = np.flatnonzero(np.diff(mv, prepend=-1))
        m_src = np.add.reduceat(w * in_src, first)
        m_dst = np.add.reduceat(w * in_dst, first)
        return 2 * m_src - cnt * src_after + cnt * dst_before - 2 * m_dst


class _MoveList(list):
    """The logged moves as ``Move`` objects, built on first read.

    Every read through the list catches up with moves logged since, in
    place, so a list taken mid-run is complete whenever it is read again.
    """

    __slots__ = ("_log", "_offset")

    def __init__(self, log: _MoveLog) -> None:
        super().__init__()
        self._log = log
        self._offset = 0  # points of the moves already built

    def _catch_up(self) -> None:
        log, done = self._log, list.__len__(self)
        if done == len(log):
            return
        pts = log.points[self._offset:].tolist()
        costs = log.costs()[done:].tolist()
        new, o = [], 0
        for s, d, c, cost in zip(log.src[done:], log.dst[done:], log.count[done:], costs):
            new.append(Move(tuple(pts[o:o + c]), s, d, cost))
            o += c
        self._offset += o
        self.extend(new)

    def __len__(self) -> int:
        self._catch_up()
        return list.__len__(self)

    def __getitem__(self, i):
        self._catch_up()
        return list.__getitem__(self, i)

    def __iter__(self):
        self._catch_up()
        return list.__iter__(self)

    def __reversed__(self):
        self._catch_up()
        return list.__reversed__(self)

    def __contains__(self, item) -> bool:
        self._catch_up()
        return list.__contains__(self, item)

    def __eq__(self, other):
        self._catch_up()
        if isinstance(other, _MoveList):
            other._catch_up()
        return list.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None

    def __repr__(self) -> str:
        self._catch_up()
        return list.__repr__(self)


class Transcript:
    """The moves an algorithm performed, as a compact log, plus run statistics.

    The log holds each move's source, destination and points as int64
    columns; all costs are priced in one vectorized pass when first asked
    for, and ``moves`` builds the :class:`Move` objects on first read.
    """

    def __init__(self, base_labels: np.ndarray, base_sizes: np.ndarray) -> None:
        self.meta: dict = {}
        self._log = _MoveLog(base_labels, base_sizes)
        self._moves: _MoveList | None = None

    @property
    def moves(self) -> list[Move]:
        """The moves in order; one list, extended in place as moves are logged."""
        if self._moves is None:
            self._moves = _MoveList(self._log)
        return self._moves

    @property
    def move_count(self) -> int:
        return len(self._log)

    @property
    def costs(self) -> np.ndarray:
        """Read-only int64 array: the cost of each move, in order."""
        return self._log.costs()

    @property
    def total_cost(self) -> int:
        return int(self._log.costs().sum())

    def replay(self, baseline: Clustering) -> tuple[Clustering, int]:
        """Re-apply the moves from ``baseline`` one at a time and re-price them.

        Returns the reconstructed final clustering and the recomputed total
        cost.  Each move is priced from running per-(cluster, origin) point
        counts, in time linear in its points; none of the log's prefix-sum
        pricing is used, so agreement between the two is a genuine
        cross-check.  Raises :class:`ReplayMismatch` when a move takes a
        point its source cluster does not hold.
        """
        log = self._log
        base = baseline.labels_array()
        size0 = np.bincount(base, minlength=baseline.k).tolist()
        size = size0[:]  # live cluster sizes, by key
        pts = log.points.tolist()
        if pts and not 0 <= min(pts) <= max(pts) < baseline.n:
            raise ReplayMismatch(f"moved points outside 0..{baseline.n - 1}")
        origins = base[np.array(pts, dtype=np.int64)].tolist()
        where: dict[int, int] = {}  # current cluster of every point moved so far
        held: dict[tuple[int, int], int] = {}  # (cluster, origin) -> points, once touched
        total = o = 0
        for i, (src, dst, c) in enumerate(zip(log.src, log.dst, log.count)):
            groups: dict[int, int] = {}
            for u, g in zip(pts[o:o + c], origins[o:o + c]):
                if where.get(u, g) != src:
                    raise ReplayMismatch(f"move {i}: point {u} is not in cluster {src}")
                where[u] = dst
                groups[g] = groups.get(g, 0) + 1
            o += c
            if dst >= len(size):
                size.extend([0] * (dst + 1 - len(size)))
            size[src] -= c
            # c points leave src and join dst: +1 per pair split that shared
            # an origin, -1 per other pair split, and the reverse for joins
            d = c * (size[dst] - size[src])
            for g, w in groups.items():
                left = held.get((src, g), size0[g] if src == g else 0) - w
                met = held.get((dst, g), size0[g] if dst == g else 0)
                held[src, g], held[dst, g] = left, met + w
                d += 2 * w * (left - met)
            size[dst] += c
            total += d
        labels = base.copy()
        if where:
            labels[list(where)] = list(where.values())
        return normalize(labels, baseline.n), total


def _radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative int64 ``keys`` below ``bound``.

    Least-significant-digit passes over 16-bit digits.  numpy sorts uint16
    stably by counting, so each pass is linear where a comparison sort of
    the int64 keys is not.
    """
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


class ClusterState:
    """Mutable clustering the algorithms edit, keyed by stable cluster ids.

    Keys 0..k-1 are the baseline clusters; clusters created later get fresh
    keys in creation order, which keeps transcripts replayable.  A pool is
    the points of one (cluster, role), role 0 red and 1 blue; a move takes
    a pool's highest point ids, or its lowest, so every cut is
    deterministic.  The state keeps no pool objects:

    - the points sorted by (baseline cluster, role, id), with one live
      ``[lo, hi)`` range per pool, empty for a cluster made later.  Takes
      remove a top suffix or a bottom prefix of a pool, so the baseline
      points a pool still holds stay one range;
    - every point's live key, ``loc``, and the live (k, 2) count table;
    - the points moved so far, once each.  A pool's other points are the
      moved points whose key and role are its own, a point back in its
      baseline cluster among them.

    The drivers decide from ``counts()`` and touch points only through
    ``move``, one call per phase.
    """

    def __init__(self, instance: ColoredInstance, clustering: Clustering) -> None:
        check_size(instance, clustering)
        self.instance = instance
        self.baseline = clustering
        self._base_labels = clustering.labels_array()
        self._blue = instance.role_blue_mask
        key = self._base_labels * 2 + self._blue
        self._order = _radix_argsort(key, 2 * clustering.k).astype(np.int64, copy=False)
        counts = np.bincount(key, minlength=2 * clustering.k)
        self._hi = np.cumsum(counts)
        self._lo = self._hi - counts
        self._counts = counts.reshape(-1, 2)
        self._loc = self._base_labels.copy()
        self._moved = np.empty(0, dtype=np.int64)
        self.transcript = Transcript(self._base_labels, counts[0::2] + counts[1::2])
        self._log = self.transcript._log

    # -- inspection ---------------------------------------------------

    def counts(self) -> np.ndarray:
        """Live (red, blue) point counts as a fresh int64 table, one row per key."""
        return self._counts.copy()

    # -- mutation -----------------------------------------------------

    def new_cluster(self, count: int = 1) -> int:
        """Add ``count`` empty clusters with consecutive keys; return the first."""
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
            raise InvalidArgument(f"cannot create {count!r} clusters")
        first = self._counts.shape[0]
        self._counts = np.concatenate((self._counts, np.zeros((count, 2), dtype=np.int64)))
        empty = np.zeros(2 * count, dtype=np.int64)  # no baseline range
        self._lo, self._hi = np.concatenate((self._lo, empty)), np.concatenate((self._hi, empty))
        return first

    def move(self, src, dst, color, count, from_low: bool = False) -> None:
        """Make a phase of moves in one call and log them in order.

        ``src``, ``dst``, ``color`` ("red" or "blue") and ``count`` are
        scalars or equal-length sequences, one entry per move; move ``i``
        carries ``count[i]`` points of ``color[i]`` from ``src[i]`` to
        ``dst[i]``.  Each move takes the highest point ids its source pool
        has left, or the lowest for ``from_low``; a move of 0 points is
        dropped.  Moves are priced later, with the whole log.

        Precondition of one call: no (cluster, color) both gives and
        receives.  Each source pool then gives consecutive slices of its
        points as they stood at the call, which is what the same moves made
        one at a time would take.  Raises :class:`BadClusterId` for a key
        that names no cluster and :class:`InvalidArgument` for src == dst,
        a negative count, a broken precondition or more points than a pool
        holds; the state and the log are then unchanged.
        """
        try:
            src, dst, role, count = (
                np.ravel(a)
                for a in np.broadcast_arrays(
                    _int_column(src, BadClusterId, "cluster keys"),
                    _int_column(dst, BadClusterId, "cluster keys"),
                    _roles(color),
                    _int_column(count, InvalidArgument, "point counts"),
                )
            )
        except ValueError:
            raise InvalidArgument("move columns must have equal lengths") from None
        live = count != 0
        if not live.all():
            src, dst, role, count = src[live], dst[live], role[live], count[live]
        if count.shape[0] == 0:
            return
        k = self._counts.shape[0]
        bad = np.flatnonzero((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= k))
        if bad.shape[0]:
            i = bad[0]
            raise BadClusterId(f"move from {src[i]} to {dst[i]}: keys are 0..{k - 1}")
        if (src == dst).any():
            raise InvalidArgument(f"move within cluster {src[np.argmax(src == dst)]}")
        if (count < 0).any():
            raise InvalidArgument(f"cannot move {count[np.argmax(count < 0)]} points")
        give, take = 2 * src + role, 2 * dst + role
        pool, g, before = _grouped(give, count)  # before: points each pool gave earlier in this call
        at = np.minimum(np.searchsorted(pool, take), pool.shape[0] - 1)
        both = np.flatnonzero(pool[at] == take)
        if both.shape[0]:
            c, r = divmod(int(take[both[0]]), 2)
            raise InvalidArgument(f"cluster {c} both gives and receives {_COLORS[r]} points in one call")
        have = self._counts.reshape(-1)[give]
        over = np.flatnonzero(before + count > have)
        if over.shape[0]:
            i = over[0]
            raise InvalidArgument(
                f"cannot move {before[i] + count[i]} {_COLORS[role[i]]} points: cluster {src[i]} has {have[i]}"
            )

        # Candidates per source pool: its moved points, and at most as many
        # of its baseline range as it gives, from the end it gives from.
        total = np.bincount(g, weights=count, minlength=pool.shape[0]).astype(np.int64)
        lo, hi = self._lo[pool], self._hi[pool]
        n_base = np.minimum(total, hi - lo)
        base = self._order[_ranges(lo if from_low else hi - n_base, n_base)]
        moved = self._moved
        held = 2 * self._loc[moved] + self._blue[moved]
        at = np.minimum(np.searchsorted(pool, held), pool.shape[0] - 1)
        mine = np.flatnonzero(pool[at] == held)
        points = np.concatenate((base, moved[mine]))
        owner = np.concatenate((np.repeat(np.arange(pool.shape[0]), n_base), at[mine]))
        # each pool ascending, pool after pool; owner * n + point < n * n fits int64
        order = np.argsort(owner * self._loc.shape[0] + points, kind="stable")
        size = np.bincount(owner, minlength=pool.shape[0])
        first = np.cumsum(size) - size

        # Source pools give consecutive slices, in log order.
        start = first[g] + (before if from_low else size[g] - before - count)
        pick = order[_ranges(start, count)]
        pts = points[pick]
        fresh = pick < base.shape[0]  # taken from a baseline range
        n_fresh = np.bincount(np.repeat(g, count)[fresh], minlength=pool.shape[0])
        if from_low:
            self._lo[pool] += n_fresh
        else:
            self._hi[pool] -= n_fresh
        self._moved = np.concatenate((moved, pts[fresh]))
        self._loc[pts] = np.repeat(dst, count)
        flat = self._counts.reshape(-1)
        flat[pool] -= total
        np.add.at(flat, take, count)
        self._log.extend(src, dst, count, pts)

    # -- output -------------------------------------------------------

    def key_labels(self) -> np.ndarray:
        """Each point's current cluster key, as a fresh int64 array."""
        return self._loc.copy()

    def to_clustering(self) -> Clustering:
        return normalize(self._loc, self.baseline.n)


_COLORS = ("red", "blue")


def _int_column(x, error: type, what: str) -> np.ndarray:
    a = np.asarray(x)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got {x!r}")
    return a.astype(np.int64, copy=False)


def _roles(color) -> np.ndarray:
    """0 for "red" and 1 for "blue", per entry of a string or a sequence of them."""
    a = np.asarray(color, dtype=str)
    blue = a == "blue"
    if not (blue | (a == "red")).all():
        raise InvalidArgument(f"colors must be 'red' or 'blue', got {color!r}")
    return blue.astype(np.int64)


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The runs start[i], ..., start[i] + length[i] - 1, concatenated."""
    end = np.cumsum(length)
    if end.shape[0] == 0:
        return end
    return np.arange(end[-1]) + np.repeat(start - (end - length), length)
