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
from bisect import insort
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


def _earlier_sums(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per item, the sum of ``values`` over the earlier items with its key."""
    order = np.argsort(keys, kind="stable")
    k, v = keys[order], values[order]
    before = np.cumsum(v) - v
    starts = np.ones(k.shape[0], dtype=bool)
    starts[1:] = k[1:] != k[:-1]
    group_start = np.maximum.accumulate(np.where(starts, np.arange(k.shape[0]), 0))
    out = np.empty_like(v)
    out[order] = before - before[group_start]
    return out


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

    def record(self, src: int, dst: int, pts: array) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.count.append(len(pts))
        self.points.extend(pts)

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
        gained = _earlier_sums(_interleave(src, dst), _interleave(-cnt, cnt)).reshape(m, 2)
        src_after = size[src] + gained[:, 0] - cnt
        dst_before = size[dst] + gained[:, 1]

        # (move, baseline cluster) groups: w points of origin g in move mv
        mv = np.repeat(np.arange(m, dtype=np.int64), cnt)
        origin = self._base_labels[np.array(self.points, dtype=np.int64)]
        pair, w = np.unique(mv * k + origin, return_counts=True)
        mv, g = np.divmod(pair, k)
        s, d = src[mv], dst[mv]
        # the same per (cluster, origin); a cluster starts with its own points
        gained = _earlier_sums(_interleave(s * k + g, d * k + g), _interleave(-w, w)).reshape(-1, 2)
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
    keys in creation order, which keeps transcripts replayable.  Points live
    in one pool per (cluster, role): ``pools[2 * key + role]``, role 0 red
    and 1 blue.  Each pool holds point ids ascending, so "the s
    highest-indexed blue points" is a well-defined deterministic cut.  The
    drivers decide from ``counts()`` and touch pools only through ``move``.
    """

    def __init__(self, instance: ColoredInstance, clustering: Clustering) -> None:
        check_size(instance, clustering)
        self.instance = instance
        self.baseline = clustering
        self._base_labels = clustering.labels_array()
        # one (cluster, role) key per point; a stable sort by it lists each
        # pool's points ascending, pool after pool
        key = self._base_labels * 2 + instance.role_blue_mask
        flat = memoryview(_radix_argsort(key, 2 * clustering.k).astype(np.int64, copy=False)).cast("B")
        counts = np.bincount(key, minlength=2 * clustering.k)
        ends = (8 * np.cumsum(counts)).tolist()  # byte offsets
        # point ids as machine ints: a point becomes a Python int only when a
        # move reads it
        self.pools: list[array] = []
        for start, end in zip([0] + ends, ends):
            pool = array("q")
            pool.frombytes(flat[start:end])
            self.pools.append(pool)
        self.transcript = Transcript(self._base_labels, counts[0::2] + counts[1::2])
        self._log = self.transcript._log

    # -- inspection ---------------------------------------------------

    def counts(self) -> np.ndarray:
        """Live (red, blue) point counts as a fresh int64 table, one row per key."""
        pools = self.pools
        return np.fromiter(map(len, pools), dtype=np.int64, count=len(pools)).reshape(-1, 2)

    # -- mutation -----------------------------------------------------

    def new_cluster(self) -> int:
        self.pools += (array("q"), array("q"))
        return len(self.pools) // 2 - 1

    def move(self, src: int, dst: int, color: str, count: int, from_low: bool = False) -> None:
        """Move ``count`` points of ``color`` from src to dst and log the move.

        Takes the highest point ids by default, the lowest when ``from_low``.
        The move is priced later, with the whole log.  Raises
        :class:`BadClusterId` for a key that names no cluster and
        :class:`InvalidArgument` for src == dst or a count src cannot give;
        the state and the log are then unchanged.
        """
        if count == 0:
            return
        pools = self.pools
        k = len(pools) // 2
        if not (0 <= src < k and 0 <= dst < k):
            raise BadClusterId(f"move from {src} to {dst}: keys are 0..{k - 1}")
        if src == dst:
            raise InvalidArgument(f"move within cluster {src}")
        role = color == "blue"
        lst = pools[2 * src + role]
        if not 0 < count <= len(lst):
            raise InvalidArgument(f"cannot move {count} {color} points: cluster {src} has {len(lst)}")
        if from_low:
            pts = lst[:count]
            del lst[:count]
        else:
            pts = lst[-count:]
            del lst[-count:]
        tgt = pools[2 * dst + role]
        if not tgt or pts[0] > tgt[-1]:
            tgt.extend(pts)
        else:
            for u in pts:
                insort(tgt, u)
        self._log.record(src, dst, pts)

    # -- output -------------------------------------------------------

    def key_labels(self) -> np.ndarray:
        """Each point's current cluster key, as a fresh int64 array.

        A point's key is its baseline label, or the destination of the last
        move that carried it; the work is linear in the points moved, apart
        from one copy of the baseline array.
        """
        out = self._base_labels.copy()
        log = self._log
        if len(log):
            pts = np.array(log.points, dtype=np.int64)
            dst = np.repeat(np.array(log.dst, dtype=np.int64), np.array(log.count, dtype=np.int64))
            last = pts.shape[0] - 1 - np.unique(pts[::-1], return_index=True)[1]
            out[pts[last]] = dst[last]
        return out

    def to_clustering(self) -> Clustering:
        return normalize(self.key_labels(), self.baseline.n)
