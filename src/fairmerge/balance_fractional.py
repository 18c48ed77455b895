"""7.5-close balancing for a fractional blue:red ratio (coprime p, q).

Both colors are balanced: blue counts to multiples of p, red counts to
multiples of q.  Each color is first served by a transfer pass moving
surpluses from cut-side clusters into merge-side clusters (red pass, then
blue pass).  The leftover shape then falls into one of four cases, handled
by packing extra single-color clusters, by the minimum-cost block loop, or
by one of each per color.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InfeasibleFairness, InternalDeficitMismatch
from .model import Clustering, ColoredInstance, all_stats
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets
from .transcript import ClusterState, Transcript


class CaseTag(Enum):
    CUT_CUT = "cut-cut"
    CUT_MERGE = "cut-merge"
    MERGE_CUT = "merge-cut"
    MERGE_MERGE = "merge-merge"


def detect_case(instance: ColoredInstance, clustering: Clustering) -> CaseTag:
    """Which residue the transfer passes will leave, from total surpluses.

    Compares, per color, the total surplus on the cut side against the
    total deficit on the merge side.  Ties go to the cut side; when both
    colors tie the residue is empty and counts as cut-cut.
    """
    p, q = instance.p, instance.q
    stats = all_stats(instance, clustering)
    r_cut, b_cut = 2 * stats.s_r <= q, 2 * stats.s_b <= p
    rc, rm = int(stats.s_r[r_cut].sum()), int(stats.d_r[~r_cut].sum())
    bc, bm = int(stats.s_b[b_cut].sum()), int(stats.d_b[~b_cut].sum())
    if rc >= rm and bc >= bm:
        return CaseTag.CUT_CUT
    if rc > rm and bc < bm:
        return CaseTag.CUT_MERGE
    if rc < rm and bc > bm:
        return CaseTag.MERGE_CUT
    return CaseTag.MERGE_MERGE


def _count_fn(state: ClusterState, color: str):
    return state.blue_count if color == "blue" else state.red_count


def _sorted_merge_live(state: ClusterState, keys: list[int], color: str, modulus: int) -> list[int]:
    """Merge-side priority: non-increasing cut cost minus merge cost."""
    count = _count_fn(state, color)

    def sortkey(c: int) -> tuple[int, int]:
        s = count(c) % modulus
        size = state.size(c)
        return (-(s * (size - s) - (modulus - s) * size), c)

    return sorted(keys, key=sortkey)


def _transfer_phase(
    state: ClusterState, color: str, modulus: int, cut_keys: list[int], merge_keys: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Move surpluses into deficits until one side runs out.

    Returns (exhausted donors, leftover cut keys, leftover merge keys).
    """
    count = _count_fn(state, color)
    di = mi = 0
    exhausted: list[int] = []
    while di < len(cut_keys) and mi < len(merge_keys):
        donor, recv = cut_keys[di], merge_keys[mi]
        s = count(donor) % modulus
        d = modulus - count(recv) % modulus
        state.move(donor, recv, color, min(s, d))
        if count(donor) % modulus == 0:
            exhausted.append(donor)
            di += 1
        if count(recv) % modulus == 0:
            mi += 1
    return exhausted, cut_keys[di:], merge_keys[mi:]


def _balance_pq(state: ClusterState) -> None:
    instance = state.instance
    p, q = instance.p, instance.q
    stats0 = all_stats(instance, state.baseline)
    case = detect_case(instance, state.baseline)
    state.transcript.meta["case"] = case.value

    s_r, s_b = stats0.s_r, stats0.s_b
    rcut = np.flatnonzero((s_r > 0) & (2 * s_r <= q)).tolist()
    rmerge = _sorted_merge_live(state, np.flatnonzero(2 * s_r > q).tolist(), "red", q)
    rnew = np.flatnonzero(s_r == 0).tolist()
    rex, rcut_rem, rmerge_rem = _transfer_phase(state, "red", q, rcut, rmerge)
    rnew += rex

    bcut = np.flatnonzero((s_b > 0) & (2 * s_b <= p)).tolist()
    bmerge = _sorted_merge_live(state, np.flatnonzero(2 * s_b > p).tolist(), "blue", p)
    bnew = np.flatnonzero(s_b == 0).tolist()
    bex, bcut_rem, bmerge_rem = _transfer_phase(state, "blue", p, bcut, bmerge)
    bnew += bex

    if case is CaseTag.CUT_CUT:
        if rmerge_rem or bmerge_rem:
            raise InternalDeficitMismatch("cut-cut residue still has deficits")
        pack_extras(state, rcut_rem, "red", q)
        pack_extras(state, bcut_rem, "blue", p)
    elif case is CaseTag.CUT_MERGE:
        if rmerge_rem or bcut_rem:
            raise InternalDeficitMismatch("cut-merge residue has the wrong shape")
        blue_donors = {
            c: make_donor_blocks(
                state, c, "blue", p, state.red_count(c) % q, c in set(bmerge_rem)
            )
            for c in bnew + bmerge_rem
        }
        pack_extras(state, rcut_rem, "red", q)
        run_merge_subsets(
            state,
            color="blue",
            modulus=p,
            donors=blue_donors,
            receivers=bmerge_rem,
            meta_prefix="blue_merge",
        )
    elif case is CaseTag.MERGE_CUT:
        if bmerge_rem or rcut_rem:
            raise InternalDeficitMismatch("merge-cut residue has the wrong shape")
        red_donors = {
            c: make_donor_blocks(
                state, c, "red", q, state.blue_count(c) % p, c in set(rmerge_rem)
            )
            for c in rnew + rmerge_rem
        }
        pack_extras(state, bcut_rem, "blue", p)
        run_merge_subsets(
            state,
            color="red",
            modulus=q,
            donors=red_donors,
            receivers=rmerge_rem,
            meta_prefix="red_merge",
        )
    else:
        if rcut_rem or bcut_rem:
            raise InternalDeficitMismatch("merge-merge residue has the wrong shape")
        red_donors = {
            c: make_donor_blocks(state, c, "red", q, 0, c in set(rmerge_rem))
            for c in rnew + rmerge_rem
        }
        blue_donors = {
            c: make_donor_blocks(state, c, "blue", p, 0, c in set(bmerge_rem))
            for c in bnew + bmerge_rem
        }
        run_merge_subsets(
            state,
            color="red",
            modulus=q,
            donors=red_donors,
            receivers=rmerge_rem,
            meta_prefix="red_merge",
        )
        run_merge_subsets(
            state,
            color="blue",
            modulus=p,
            donors=blue_donors,
            receivers=bmerge_rem,
            meta_prefix="blue_merge",
        )


def balance_pq(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Rearrange so blue counts are multiples of p and red counts of q."""
    if instance.blue_total % instance.p or instance.red_total % instance.q:
        raise InfeasibleFairness(
            f"totals blue={instance.blue_total}, red={instance.red_total} "
            f"not multiples of p={instance.p}, q={instance.q}"
        )
    state = ClusterState(instance, clustering)
    _balance_pq(state)
    return state.to_clustering(), state.transcript


def _shape_check(stats, color: str, modulus: int) -> None:
    surplus = (lambda st: st.s_b) if color == "blue" else (lambda st: st.s_r)
    for st in stats:
        if 0 < 2 * surplus(st) <= modulus:
            raise ValueError(f"{color} side still has an unprocessed cut cluster")


def algo_cut_cut(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Pack red surpluses into size-q extras and blue ones into size-p extras."""
    state = ClusterState(instance, clustering)
    pack_extras(
        state, [c for c in range(clustering.k) if state.red_count(c) % instance.q], "red", instance.q
    )
    pack_extras(
        state, [c for c in range(clustering.k) if state.blue_count(c) % instance.p], "blue", instance.p
    )
    return state.to_clustering(), state.transcript


def algo_cut_merge(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Red surpluses into size-q extras; blue deficits served by block cuts.

    Blue block costs discount each donor's red surplus, since those red
    points are about to leave for the extras.
    """
    p, q = instance.p, instance.q
    stats = all_stats(instance, clustering)
    _shape_check(stats, "blue", p)
    state = ClusterState(instance, clustering)
    receivers = _sorted_merge_live(
        state, [c for c, st in enumerate(stats) if st.s_b], "blue", p
    )
    blue_donors = {
        c: make_donor_blocks(state, c, "blue", p, state.red_count(c) % q, stats[c].s_b > 0)
        for c in range(clustering.k)
    }
    pack_extras(state, [c for c, st in enumerate(stats) if st.s_r], "red", q)
    run_merge_subsets(
        state, color="blue", modulus=p, donors=blue_donors, receivers=receivers,
        meta_prefix="blue_merge",
    )
    return state.to_clustering(), state.transcript


def algo_merge_cut(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Color mirror of :func:`algo_cut_merge`."""
    p, q = instance.p, instance.q
    stats = all_stats(instance, clustering)
    _shape_check(stats, "red", q)
    state = ClusterState(instance, clustering)
    receivers = _sorted_merge_live(
        state, [c for c, st in enumerate(stats) if st.s_r], "red", q
    )
    red_donors = {
        c: make_donor_blocks(state, c, "red", q, state.blue_count(c) % p, stats[c].s_r > 0)
        for c in range(clustering.k)
    }
    pack_extras(state, [c for c, st in enumerate(stats) if st.s_b], "blue", p)
    run_merge_subsets(
        state, color="red", modulus=q, donors=red_donors, receivers=receivers,
        meta_prefix="red_merge",
    )
    return state.to_clustering(), state.transcript


def algo_merge_merge(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Serve red deficits by block cuts, then blue deficits the same way.

    Unlike the mixed cases, block costs here do not discount the opposite
    color's surplus.
    """
    p, q = instance.p, instance.q
    stats = all_stats(instance, clustering)
    _shape_check(stats, "red", q)
    _shape_check(stats, "blue", p)
    state = ClusterState(instance, clustering)
    red_receivers = _sorted_merge_live(
        state, [c for c, st in enumerate(stats) if st.s_r], "red", q
    )
    blue_receivers = _sorted_merge_live(
        state, [c for c, st in enumerate(stats) if st.s_b], "blue", p
    )
    red_donors = {
        c: make_donor_blocks(state, c, "red", q, 0, stats[c].s_r > 0)
        for c in range(clustering.k)
    }
    blue_donors = {
        c: make_donor_blocks(state, c, "blue", p, 0, stats[c].s_b > 0)
        for c in range(clustering.k)
    }
    run_merge_subsets(
        state, color="red", modulus=q, donors=red_donors, receivers=red_receivers,
        meta_prefix="red_merge",
    )
    run_merge_subsets(
        state, color="blue", modulus=p, donors=blue_donors, receivers=blue_receivers,
        meta_prefix="blue_merge",
    )
    return state.to_clustering(), state.transcript
