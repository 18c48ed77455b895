"""Exact closest fair clustering for instances with equal red and blue totals.

The procedure has two phases.  First every input cluster is split into its
largest fair subset (min(red, blue) points of each color) plus a leftover
block of the majority color.  Second the leftover monochromatic blocks are
combined greedily: repeatedly pair the smallest remaining block with the
smallest block of the opposite color, consuming the smaller one whole (the
red one on a tie).  The achieved distance equals the true optimum over all
fair clusterings.
"""

from __future__ import annotations

import numpy as np

from .errors import WrongRatio
from .mergeloop import pair_off
from .model import Clustering, ColoredInstance, all_stats, validate_feasible
from .transcript import ClusterState


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
    # Pair the smallest blocks of each color first.  A remainder stays at the
    # head of its list; it only shrinks, so it stays the smallest of its color.
    red_left = [r[0] for r in reds]
    for ri, bi, k in pair_off(red_left[:], [b[0] for b in blues]):
        red_key, blue_key = reds[ri][2], blues[bi][2]
        red_left[ri] -= k
        if red_left[ri] == 0:  # the red block is used up (a tie counts): blues join it
            state.move(blue_key, red_key, "blue", k, from_low=True)
        else:
            state.move(red_key, blue_key, "red", k, from_low=True)


def find_closest_fair_11(
    instance: ColoredInstance, clustering: Clustering
) -> Clustering:
    """Closest fair clustering when the ratio is exactly 1:1."""
    if instance.p != 1 or instance.q != 1:
        raise WrongRatio(f"requires ratio 1:1, got {instance.p}:{instance.q}")
    validate_feasible(instance)
    state = ClusterState(instance, clustering)
    _run_exact(state)
    return state.to_clustering()
