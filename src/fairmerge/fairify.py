"""Convert a balanced clustering into a fair one by relocating red points.

With p >= q, every balanced cluster either has too many red points for its
blue count (its red excess is a positive integer), too few (a positive red
shortfall), or is already fair.  Moving exactly the excess reds out of the
first kind and into the second makes every cluster fair; no blue point
ever moves.  The achieved distance is at most 3 times that of the closest
fair clustering.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleFairness, NotBalanced
from .mergeloop import pair_off
from .model import Clustering, ColoredInstance, _divmod, validate_feasible
from .transcript import ClusterState, Transcript


def _make_clusters_fair(state: ClusterState) -> None:
    p, q, n = state.instance.p, state.instance.q, state.instance.n
    if n == 0:  # feasible totals over n > 0 points give q <= n, so q * units fits int64
        return
    red, blue = state.counts().T
    units, rest = _divmod(blue, p, n)
    if rest.any():
        c = int(np.flatnonzero(rest)[0])
        raise NotBalanced(f"cluster {c}: blue count {blue[c]} not a multiple of {p}")
    sigma = red - q * units  # reds beyond the fair share; empty clusters have 0
    donors, receivers = np.flatnonzero(sigma > 0), np.flatnonzero(sigma < 0)
    spare, missing = sigma[donors], -sigma[receivers]
    if spare.sum() != missing.sum():
        raise InfeasibleFairness("red spares and red shortfalls do not match")
    i, j, k = pair_off(spare, missing)
    state.move(donors[i], receivers[j], "red", k)


def make_clusters_fair(
    instance: ColoredInstance, balanced: Clustering
) -> tuple[Clustering, Transcript]:
    """Fair clustering at most 3 times further from ``balanced`` than optimal."""
    validate_feasible(instance)
    state = ClusterState(instance, balanced)
    _make_clusters_fair(state)
    return state.to_clustering(), state.transcript
