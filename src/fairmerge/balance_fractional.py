"""7.5-close balancing for a fractional blue:red ratio (coprime p, q).

Both colors are balanced: blue counts to multiples of p, red counts to
multiples of q.  Each color is first served by a transfer pass moving
surpluses from cut-side clusters into merge-side clusters (red pass, then
blue pass).  The residue case then says, per color, whether what is left
are surpluses, packed into extra single-color clusters, or deficits,
served by the minimum-cost block loop.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .errors import InfeasibleFairness, InternalDeficitMismatch
from .model import Clustering, ColoredInstance, all_stats
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets, transfer
from .transcript import ClusterState, Transcript


class CaseTag(Enum):
    """Residue shape, red side first: which colors end cut-side."""

    CUT_CUT = "cut-cut"
    CUT_MERGE = "cut-merge"
    MERGE_CUT = "merge-cut"
    MERGE_MERGE = "merge-merge"

    def cuts(self, color: str) -> bool:
        """Whether ``color``'s residue is packed into extras (else block-cut)."""
        red, blue = self.value.split("-")
        return (red if color == "red" else blue) == "cut"


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


class _Side(NamedTuple):
    """One color after its transfer pass."""

    color: str
    modulus: int
    count: Callable[[int], int]
    cuts: bool  # the residue is surpluses to pack, not deficits to serve
    balanced: list[int]
    cut_rem: list[int]
    merge_rem: list[int]


def _balance_pq(state: ClusterState) -> None:
    instance = state.instance
    p, q = instance.p, instance.q
    stats = all_stats(instance, state.baseline)
    case = detect_case(instance, state.baseline)
    state.transcript.meta["case"] = case.value

    red, blue = (  # the red pass runs first
        _Side(color, modulus, count, case.cuts(color), *transfer(state, color, modulus, surplus))
        for color, modulus, count, surplus in (
            ("red", q, state.red_count, stats.s_r),
            ("blue", p, state.blue_count, stats.s_b),
        )
    )
    for side in (red, blue):
        if side.merge_rem if side.cuts else side.cut_rem:
            raise InternalDeficitMismatch(f"{case.value} residue has the wrong {side.color} shape")

    # Every donor table is fixed before any residue move.  A table discounts
    # the other color's surplus when that color is about to be packed away.
    tables = {}
    for side, other in ((red, blue), (blue, red)):
        if not side.cuts:
            receivers = set(side.merge_rem)
            tables[side.color] = {
                c: make_donor_blocks(
                    state,
                    c,
                    side.color,
                    side.modulus,
                    other.count(c) % other.modulus if other.cuts else 0,
                    c in receivers,
                )
                for c in side.balanced + side.merge_rem
            }
    for side in (red, blue):
        if side.cuts:
            pack_extras(state, side.cut_rem, side.color, side.modulus)
    for side in (red, blue):
        if not side.cuts:
            run_merge_subsets(
                state,
                color=side.color,
                modulus=side.modulus,
                donors=tables[side.color],
                receivers=side.merge_rem,
                meta_prefix=f"{side.color}_merge",
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
