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
    """Apply both phases on a live state, one ``move`` call each."""
    stats = all_stats(state.instance, state.baseline)
    uneven = np.flatnonzero(stats.blue != stats.red)
    blue, red = stats.blue[uneven], stats.red[uneven]
    is_blue = blue > red
    excess = np.abs(blue - red)
    # a cluster of one color is its own leftover block; any other splits
    # its leftover into a new cluster
    key = uneven.copy()
    split = np.flatnonzero(np.minimum(blue, red) > 0)
    key[split] = state.new_cluster(split.shape[0]) + np.arange(split.shape[0])
    state.move(uneven[split], key[split], np.where(is_blue[split], "blue", "red"), excess[split])
    # Pair the smallest blocks of each color first (by size, then origin).
    # A remainder stays at the head of its list; it only shrinks, so it
    # stays the smallest of its color.
    by_size = np.lexsort((uneven, excess))
    reds, blues = by_size[~is_blue[by_size]], by_size[is_blue[by_size]]
    ri, bi, k = pair_off(excess[reds], excess[blues])
    red_key, blue_key = key[reds][ri], key[blues][bi]
    # the red block is used up (a tie counts): the blues join it
    red_done = np.cumsum(k) == np.cumsum(excess[reds])[ri]
    state.move(
        np.where(red_done, blue_key, red_key),
        np.where(red_done, red_key, blue_key),
        np.where(red_done, "blue", "red"),
        k,
        from_low=True,
    )


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
