"""3.5-close balancing for an integral blue:red ratio (q = 1).

A cluster whose blue count is not a multiple of p carries a surplus
s = blue mod p.  Clusters with s <= p/2 are cheaper to cut, the rest
cheaper to top up.  The driver first transfers surplus blues from cut
clusters into merge clusters; whichever side is left over is finished by
either packing surpluses into fresh all-blue clusters of size p, or by
cutting minimum-cost blocks to service the remaining deficits.
"""

from __future__ import annotations

from .errors import InfeasibleFairness, SurplusNotMultipleOfP, WrongRatio
from .model import Clustering, ClusterStats, ColoredInstance, all_stats
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets, transfer
from .transcript import ClusterState, Transcript


def cut_merge_costs(stats: ClusterStats, p: int) -> tuple[int, int]:
    """Pair cost of removing the surplus vs adding the deficit.

    cut = s * (size - s), the pairs broken by extracting s points;
    merge = d * size, the pairs created by adopting d foreign points.
    """
    s = stats.blue_count % p
    d = (p - s) % p
    return s * (stats.size - s), d * stats.size


def _balance_p(state: ClusterState) -> None:
    p = state.instance.p
    stats = all_stats(state.instance, state.baseline)
    balanced, cut_rem, merge_rem = transfer(state, "blue", p, stats.s_b)
    if cut_rem:
        pack_extras(state, cut_rem, "blue", p, SurplusNotMultipleOfP)
    elif merge_rem:
        receivers = set(merge_rem)
        donors = {
            c: make_donor_blocks(state, c, "blue", p, 0, is_receiver=c in receivers)
            for c in balanced + merge_rem
        }
        run_merge_subsets(
            state,
            color="blue",
            modulus=p,
            donors=donors,
            receivers=merge_rem,
            meta_prefix="merge",
        )


def balance_p(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Rearrange so every cluster's blue count is a multiple of p (q = 1)."""
    if instance.q != 1:
        raise WrongRatio(f"integral balancing requires q = 1, got q = {instance.q}")
    if instance.blue_total % instance.p != 0:
        raise InfeasibleFairness(
            f"blue total {instance.blue_total} not a multiple of p = {instance.p}"
        )
    state = ClusterState(instance, clustering)
    _balance_p(state)
    return state.to_clustering(), state.transcript
