"""Convert a balanced clustering into a fair one by relocating red points.

With p >= q, every balanced cluster either has too many red points for its
blue count (its red excess is a positive integer), too few (a positive red
shortfall), or is already fair.  Moving exactly the excess reds out of the
first kind and into the second makes every cluster fair; no blue point
ever moves.  The achieved distance is at most 3 times that of the closest
fair clustering.
"""

from __future__ import annotations

from .errors import InfeasibleFairness, NotBalanced
from .mergeloop import pair_off
from .model import Clustering, ColoredInstance, validate_feasible
from .transcript import ClusterState, Transcript


def _make_clusters_fair(state: ClusterState) -> None:
    p, q = state.instance.p, state.instance.q
    donors: list[int] = []
    spare: list[int] = []  # reds each donor has beyond its fair share
    receivers: list[int] = []
    missing: list[int] = []  # reds each receiver lacks
    for c in range(len(state.clusters)):
        b, r = state.blue_count(c), state.red_count(c)
        if b == 0 and r == 0:
            continue
        if (q * b) % p:
            raise NotBalanced(f"cluster {c}: blue count {b} not a multiple of {p}")
        sigma = r - (q * b) // p
        if sigma > 0:
            donors.append(c)
            spare.append(sigma)
        elif sigma < 0:
            receivers.append(c)
            missing.append(-sigma)
    if sum(spare) != sum(missing):
        raise InfeasibleFairness("red spares and red shortfalls do not match")
    for i, j, k in pair_off(spare, missing):
        state.move(donors[i], receivers[j], "red", k)


def make_clusters_fair(
    instance: ColoredInstance, balanced: Clustering
) -> tuple[Clustering, Transcript]:
    """Fair clustering at most 3 times further from ``balanced`` than optimal."""
    validate_feasible(instance)
    state = ClusterState(instance, balanced)
    _make_clusters_fair(state)
    return state.to_clustering(), state.transcript
