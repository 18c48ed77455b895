"""Replayable move records and the mutable cluster state behind the algorithms.

Every rebalancing algorithm works by moving sets of same-colored points
between clusters.  ``ClusterState`` applies those moves and prices each one
exactly: the recorded cost of a move is the change it causes in the
pairwise-disagreement distance to a fixed baseline clustering.  Because the
costs telescope, their sum always equals dist(baseline, final state), which
is what makes transcripts auditable.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .model import Clustering, ColoredInstance, normalize


@dataclass(frozen=True)
class Move:
    """One transfer of ``points`` from cluster ``src`` to cluster ``dst``.

    ``cost`` is the exact change in distance to the transcript's baseline
    caused by this move, computed at the moment it was applied.
    """

    points: tuple[int, ...]
    src: int
    dst: int
    cost: int


@dataclass
class Transcript:
    """Ordered list of moves an algorithm performed, plus run statistics."""

    moves: list[Move] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        return sum(m.cost for m in self.moves)

    def replay(self, baseline: Clustering) -> tuple[Clustering, int]:
        """Re-apply the moves from ``baseline`` and re-price them naively.

        Returns the reconstructed final clustering and the recomputed total
        cost.  The pricing here iterates real point pairs, independently of
        the counter arithmetic used while recording, so agreement between
        the two is a genuine cross-check.
        """
        clusters: dict[int, set[int]] = {
            c: set(pts) for c, pts in enumerate(baseline.members)
        }
        base = baseline.labels
        total = 0
        for mv in self.moves:
            src = clusters[mv.src]
            dst = clusters.setdefault(mv.dst, set())
            for u in mv.points:
                src.remove(u)
            d = 0
            for u in mv.points:
                bu = base[u]
                for v in src:
                    d += 1 if base[v] == bu else -1
                for v in dst:
                    d += -1 if base[v] == bu else 1
            dst.update(mv.points)
            total += d
            if not src:
                del clusters[mv.src]
        labels = [0] * baseline.n
        for key, pts in clusters.items():
            for u in pts:
                labels[u] = key
        return normalize(labels, baseline.n), total


class _WorkCluster:
    __slots__ = ("reds", "blues", "origin")

    def __init__(self) -> None:
        # point ids ascending, as machine ints: a point becomes a Python int
        # only when a move reads it
        self.reds = array("q")
        self.blues = array("q")
        # baseline cluster id -> number of points from it currently here
        self.origin: dict[int, int] = {}

    @property
    def size(self) -> int:
        return len(self.reds) + len(self.blues)


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
    keys in creation order, which keeps transcripts replayable.  Point lists
    are held sorted ascending so "the s highest-indexed blue points" is a
    well-defined deterministic cut.
    """

    def __init__(self, instance: ColoredInstance, clustering: Clustering) -> None:
        self.instance = instance
        self.baseline = clustering
        self._base_labels = clustering.labels_array()
        self.transcript = Transcript()
        self.cost = 0
        k = clustering.k
        self.clusters: list[_WorkCluster] = [_WorkCluster() for _ in range(k)]
        if clustering.n:
            # one (cluster, role) key per point; a stable sort by it lists
            # each cluster's reds, then its blues, each ascending
            key = self._base_labels * 2 + instance.role_blue_mask
            flat = memoryview(_radix_argsort(key, 2 * k).astype(np.int64, copy=False)).cast("B")
            ends = (8 * np.cumsum(np.bincount(key, minlength=2 * k))).tolist()  # byte offsets
            start = 0
            for c, wc in enumerate(self.clusters):
                mid, end = ends[2 * c], ends[2 * c + 1]
                wc.reds.frombytes(flat[start:mid])
                wc.blues.frombytes(flat[mid:end])
                wc.origin = {c: (end - start) // 8}
                start = end

    # -- inspection ---------------------------------------------------

    def blue_count(self, key: int) -> int:
        return len(self.clusters[key].blues)

    def red_count(self, key: int) -> int:
        return len(self.clusters[key].reds)

    def size(self, key: int) -> int:
        return self.clusters[key].size

    def alive_keys(self) -> list[int]:
        return [k for k, c in enumerate(self.clusters) if c.size > 0]

    # -- mutation -----------------------------------------------------

    def new_cluster(self) -> int:
        self.clusters.append(_WorkCluster())
        return len(self.clusters) - 1

    def move(self, src: int, dst: int, color: str, count: int, from_low: bool = False) -> int:
        """Move ``count`` points of ``color`` from src to dst; returns the cost.

        Takes the highest point ids by default, the lowest when ``from_low``.
        The cost is the exact change in distance to the baseline, computed
        from per-cluster origin counters.
        """
        if count == 0:
            return 0
        if src == dst:
            raise ValueError("move within one cluster")
        sc = self.clusters[src]
        lst = sc.blues if color == "blue" else sc.reds
        if count > len(lst):
            raise ValueError(f"cluster {src} has only {len(lst)} {color} points")
        if from_low:
            pts = lst[:count].tolist()
            del lst[:count]
        else:
            pts = lst[-count:].tolist()
            del lst[-count:]

        porig: dict[int, int] = {}
        base = self._base_labels.item
        for u in pts:
            g = base(u)
            porig[g] = porig.get(g, 0) + 1
        so = sc.origin
        for g, c in porig.items():
            left = so[g] - c
            if left:
                so[g] = left
            else:
                del so[g]

        dc = self.clusters[dst]
        m_src = sum(c * so.get(g, 0) for g, c in porig.items())
        m_dst = sum(c * dc.origin.get(g, 0) for g, c in porig.items())
        delta = 2 * m_src - count * sc.size + count * dc.size - 2 * m_dst

        tgt = dc.blues if color == "blue" else dc.reds
        if not tgt or pts[0] > tgt[-1]:
            tgt.extend(pts)
        else:
            for u in pts:
                insort(tgt, u)
        do = dc.origin
        for g, c in porig.items():
            do[g] = do.get(g, 0) + c

        self.cost += delta
        self.transcript.moves.append(Move(tuple(pts), src, dst, delta))
        return delta

    # -- output -------------------------------------------------------

    def key_labels(self) -> np.ndarray:
        """Each point's current cluster key, as a fresh int64 array.

        A point's key is its baseline label, or the destination of the last
        move that carried it; the work is linear in the points moved, apart
        from one copy of the baseline array.
        """
        out = self._base_labels.copy()
        moves = self.transcript.moves
        if moves:
            pts = np.fromiter(chain.from_iterable(m.points for m in moves), dtype=np.int64)
            sizes = np.fromiter((len(m.points) for m in moves), dtype=np.int64, count=len(moves))
            dsts = np.fromiter((m.dst for m in moves), dtype=np.int64, count=len(moves))
            dst = np.repeat(dsts, sizes)
            last = pts.shape[0] - 1 - np.unique(pts[::-1], return_index=True)[1]
            out[pts[last]] = dst[last]
        return out

    def to_clustering(self) -> Clustering:
        return normalize(self.key_labels(), self.baseline.n)
