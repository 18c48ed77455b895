"""Exact closest fair clustering for instances with equal red and blue totals.

The procedure has two phases.  First every input cluster is split into its
largest fair subset (min(red, blue) points of each color) plus a leftover
block of the majority color.  Second the leftover monochromatic blocks are
combined greedily: repeatedly pair the smallest remaining block with the
smallest block of the opposite color, consuming the smaller one whole.  The
achieved distance equals the true optimum over all fair clusterings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UnbalancedTotals, WrongRatio
from .model import Clustering, ColoredInstance, all_stats, validate_feasible
from .transcript import ClusterState, Transcript


@dataclass(frozen=True)
class MonoCluster:
    """A single-color block of points, remembering which cluster it left."""

    color: str  # "red" | "blue"
    members: tuple[int, ...]
    origin: int

    @property
    def size(self) -> int:
        return len(self.members)


def make_it_fair(
    instance: ColoredInstance, cluster: Iterable[int], origin: int = 0
) -> tuple[tuple[int, ...], MonoCluster | None]:
    """Split one cluster into its maximal fair part and a leftover block.

    The fair part keeps min(red, blue) points of each color; the leftover
    holds the |red - blue| highest-indexed points of the majority color and
    is ``None`` when the cluster is already fair.  The leftover is labeled
    with its points' actual color.
    """
    pts = sorted(cluster)
    blues = [i for i in pts if instance.role_is_blue(i)]
    reds = [i for i in pts if not instance.role_is_blue(i)]
    if len(blues) == len(reds):
        return tuple(pts), None
    major = blues if len(blues) > len(reds) else reds
    excess = abs(len(blues) - len(reds))
    members = tuple(major[-excess:])
    color = "blue" if instance.blue_mask[members[0]] else "red"
    leftover = MonoCluster(color=color, members=members, origin=origin)
    fair = sorted(set(pts) - set(members))
    return tuple(fair), leftover


def _greedy_steps(
    red_sizes: Sequence[int], blue_sizes: Sequence[int]
) -> Iterator[tuple[str, int, int, int]]:
    """Pairing plan over size-sorted monochromatic blocks.

    Yields ("blue_into_red", ri, bi, k) when red block ri is consumed whole
    by k blues cut from block bi, or ("red_into_blue", ri, bi, k) in the
    mirrored case.  Remainders stay at the head of their list; they can only
    shrink, so they remain the smallest of their color.
    """
    ri = bi = 0
    rem_r = red_sizes[0] if red_sizes else 0
    rem_b = blue_sizes[0] if blue_sizes else 0
    while ri < len(red_sizes) and bi < len(blue_sizes):
        if rem_r <= rem_b:
            yield ("blue_into_red", ri, bi, rem_r)
            rem_b -= rem_r
            ri += 1
            if ri < len(red_sizes):
                rem_r = red_sizes[ri]
            if rem_b == 0:
                bi += 1
                if bi < len(blue_sizes):
                    rem_b = blue_sizes[bi]
        else:
            yield ("red_into_blue", ri, bi, rem_b)
            rem_r -= rem_b
            bi += 1
            if bi < len(blue_sizes):
                rem_b = blue_sizes[bi]


def greedy_merge(
    reds: Sequence[MonoCluster], blues: Sequence[MonoCluster]
) -> list[tuple[int, ...]]:
    """Combine monochromatic blocks into fair clusters, smallest first.

    Blocks are processed in non-decreasing (size, origin) order; when a
    block is split, the consumed part is its lowest-id prefix.  Total red
    and blue counts must agree.
    """
    if sum(m.size for m in reds) != sum(m.size for m in blues):
        raise UnbalancedTotals("red and blue leftover totals differ")
    rs = sorted(reds, key=lambda m: (m.size, m.origin))
    bs = sorted(blues, key=lambda m: (m.size, m.origin))
    red_pool = [list(m.members) for m in rs]
    blue_pool = [list(m.members) for m in bs]
    out: list[tuple[int, ...]] = []
    for kind, ri, bi, k in _greedy_steps([m.size for m in rs], [m.size for m in bs]):
        if kind == "blue_into_red":
            piece, blue_pool[bi] = blue_pool[bi][:k], blue_pool[bi][k:]
            out.append(tuple(sorted(red_pool[ri] + piece)))
            red_pool[ri] = []
        else:
            piece, red_pool[ri] = red_pool[ri][:k], red_pool[ri][k:]
            out.append(tuple(sorted(blue_pool[bi] + piece)))
            blue_pool[bi] = []
    return out


def _run_exact(state: ClusterState) -> None:
    """Apply both phases on a live state, recording every move."""
    instance = state.instance
    reds: list[tuple[int, int, int]] = []  # (size, origin, state key)
    blues: list[tuple[int, int, int]] = []
    stats = all_stats(instance, state.baseline)
    uneven = np.flatnonzero(stats.blue != stats.red)
    for c, b, r in zip(uneven.tolist(), stats.blue[uneven].tolist(), stats.red[uneven].tolist()):
        color = "blue" if b > r else "red"
        excess = abs(b - r)
        if min(b, r) == 0:
            key = c  # the whole cluster is the leftover block; no move needed
        else:
            key = state.new_cluster()
            state.move(c, key, color, excess)
        (blues if color == "blue" else reds).append((excess, c, key))
    reds.sort()
    blues.sort()
    for kind, ri, bi, k in _greedy_steps([r[0] for r in reds], [b[0] for b in blues]):
        red_key, blue_key = reds[ri][2], blues[bi][2]
        if kind == "blue_into_red":
            state.move(blue_key, red_key, "blue", k, from_low=True)
        else:
            state.move(red_key, blue_key, "red", k, from_low=True)


def find_closest_fair_11(
    instance: ColoredInstance, clustering: Clustering
) -> Clustering:
    """Closest fair clustering when the ratio is exactly 1:1."""
    out, _ = find_closest_fair_11_with_transcript(instance, clustering)
    return out


def find_closest_fair_11_with_transcript(
    instance: ColoredInstance, clustering: Clustering
) -> tuple[Clustering, Transcript]:
    if instance.p != 1 or instance.q != 1:
        raise WrongRatio(f"requires ratio 1:1, got {instance.p}:{instance.q}")
    validate_feasible(instance)
    state = ClusterState(instance, clustering)
    _run_exact(state)
    return state.to_clustering(), state.transcript
