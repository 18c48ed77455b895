"""3.5-close balancing for an integral blue:red ratio (q = 1).

A cluster whose blue count is not a multiple of p carries a surplus
s = blue mod p.  Clusters with s <= p/2 are cheaper to cut, the rest
cheaper to top up.  The driver first transfers surplus blues from cut
clusters into merge clusters; whichever side is left over is finished by
either packing surpluses into fresh all-blue clusters of size p, or by
cutting minimum-cost blocks to service the remaining deficits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFairness, SubsetOutOfRange, SurplusNotMultipleOfP, WrongRatio
from .model import Clustering, ClusterStats, ColoredInstance, StatsColumns, all_stats
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets
from .transcript import ClusterState, Transcript


def cut_merge_costs(stats: ClusterStats, p: int) -> tuple[int, int]:
    """Pair cost of removing the surplus vs adding the deficit.

    cut = s * (size - s), the pairs broken by extracting s points;
    merge = d * size, the pairs created by adopting d foreign points.
    """
    s = stats.blue_count % p
    d = (p - s) % p
    return s * (stats.size - s), d * stats.size


@dataclass(frozen=True)
class SubsetCost:
    """Cost of detaching the z-th blue block of one cluster."""

    cluster_id: int
    z: int
    size: int
    cost: int


def subset_cost(
    stats: ClusterStats, z: int, p: int, in_merge_phase: bool = False, cluster_id: int = 0
) -> SubsetCost:
    """Cutting cost of block z: the surplus block for z = 0, else p points.

    In the merge phase the 0th block's cost is reduced by the cluster's own
    merge cost (cutting its surplus also cancels its deficit), which may
    make it negative; it then outranks every full block.
    """
    s = stats.blue_count % p
    if z < 0 or z > (stats.blue_count - s) // p:
        raise SubsetOutOfRange(f"cluster has no blue block {z}")
    if z == 0:
        cost = s * (stats.size - s)
        if in_merge_phase:
            cost -= ((p - s) % p) * stats.size
        return SubsetCost(cluster_id=cluster_id, z=0, size=s, cost=cost)
    cost = p * (stats.size - (z * p + s))
    return SubsetCost(cluster_id=cluster_id, z=z, size=p, cost=cost)


def _sorted_merge_keys(keys: np.ndarray, stats: StatsColumns) -> list[int]:
    """Ascending ``keys`` by non-increasing cut cost minus merge cost.

    The costs are :func:`cut_merge_costs` of each cluster, read from the
    columns; the stable sort breaks ties by key.
    """
    s, size = stats.s_b[keys], stats.size[keys]
    gain = s * (size - s) - stats.d_b[keys] * size
    return keys[np.argsort(-gain, kind="stable")].tolist()


def _balance_p(state: ClusterState) -> None:
    instance = state.instance
    p = instance.p
    stats = all_stats(instance, state.baseline)
    s_b = stats.s_b
    newcut = np.flatnonzero(s_b == 0).tolist()
    cut = np.flatnonzero((s_b > 0) & (2 * s_b <= p)).tolist()
    merge = _sorted_merge_keys(np.flatnonzero(2 * s_b > p), stats)

    di = mi = 0
    while di < len(cut) and mi < len(merge):
        donor, recv = cut[di], merge[mi]
        s = state.blue_count(donor) % p
        d = p - state.blue_count(recv) % p
        state.move(donor, recv, "blue", min(s, d))
        if state.blue_count(donor) % p == 0:
            newcut.append(donor)
            di += 1
        if state.blue_count(recv) % p == 0:
            mi += 1

    if di < len(cut):
        pack_extras(state, cut[di:], "blue", p, SurplusNotMultipleOfP)
    elif mi < len(merge):
        merge_rem = merge[mi:]
        donors = {
            c: make_donor_blocks(state, c, "blue", p, 0, is_receiver=(c in set(merge_rem)))
            for c in newcut + merge_rem
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


def algo_for_cut(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Finish a cut-only residue: surpluses become all-blue clusters of size p.

    Every cluster sheds its blue surplus; the shed points fill extra
    clusters of exactly p first-fit in cluster-id order.
    """
    state = ClusterState(instance, clustering)
    donors = [c for c in range(clustering.k) if state.blue_count(c) % instance.p]
    pack_extras(state, donors, "blue", instance.p, SurplusNotMultipleOfP)
    return state.to_clustering(), state.transcript


def algo_for_merge(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Finish a merge-only residue: cut cheapest blocks to fill all deficits.

    Clusters with a surplus are the deficit holders; they and the already
    balanced clusters form the donor pool.  Deficits are topped up in
    non-increasing (cut cost - merge cost) order.
    """
    p = instance.p
    stats = all_stats(instance, clustering)
    merge_rem = _sorted_merge_keys(np.flatnonzero(stats.s_b), stats)
    state = ClusterState(instance, clustering)
    donors = {
        c: make_donor_blocks(state, c, "blue", p, 0, is_receiver=(stats[c].s_b > 0))
        for c in range(clustering.k)
    }
    run_merge_subsets(
        state,
        color="blue",
        modulus=p,
        donors=donors,
        receivers=merge_rem,
        meta_prefix="merge",
    )
    return state.to_clustering(), state.transcript
