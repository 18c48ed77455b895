"""Shared machinery for the balancing, fairifying and exact passes.

``pair_off`` is the one greedy step they all repeat: hand amounts of
supply to amounts of demand in a fixed order.  ``transfer`` runs it on one
color's surpluses, from cut-side into merge-side clusters.  What is left is
finished in one of two ways.  ``pack_extras`` sweeps leftover surpluses into
fresh single-color clusters of exactly the modulus size.
``run_merge_subsets`` services leftover deficits: each donor cluster's
points of one color are divided into a size-``s`` block (its own surplus,
block 0) and full blocks of the modulus size, each block carrying a fixed
cutting cost (``make_donor_blocks`` tabulates them for all donors of a
color at once); the cheapest available block is cut and dealt into the
deficit clusters in priority order until every deficit is filled.

Every decision here reads counts, the baseline surplus column or the
state's ``counts()`` table; points are touched only through
``ClusterState.move``, one call per pass.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from .errors import InternalDeficitMismatch, SurplusNotMultiple
from .model import _divmod
from .transcript import ClusterState


def pair_off(
    supply: Sequence[int] | np.ndarray, demand: Sequence[int] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy pairing of two sequences of positive amounts, both walked in order.

    Each step hands ``k = min(supply left at i, demand left at j)`` from
    supply ``i`` to demand ``j``; an exhausted amount moves its cursor on
    (both cursors on a tie).  Stops as soon as either side runs out, so the
    steps carry ``min(sum(supply), sum(demand))`` in total.  Returns the
    steps as three int64 columns ``(i, j, k)``.

    The steps are the gaps between consecutive running totals of either
    side, so one merge of the two ascending running-total columns finds
    them all.
    """
    supply_end = np.cumsum(np.asarray(supply, dtype=np.int64))
    demand_end = np.cumsum(np.asarray(demand, dtype=np.int64))
    if not (supply_end.shape[0] and demand_end.shape[0]):
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    ends = np.concatenate((supply_end, demand_end))
    ends.sort(kind="stable")  # a merge of two sorted runs
    ends = ends[np.flatnonzero(np.diff(ends, prepend=0))]  # the positive amounts make 0 no end
    ends = ends[: np.searchsorted(ends, min(supply_end[-1], demand_end[-1]), side="right")]
    starts = np.concatenate(([0], ends[:-1]))
    return (
        np.searchsorted(supply_end, starts, side="right"),
        np.searchsorted(demand_end, starts, side="right"),
        ends - starts,
    )


def transfer(
    state: ClusterState, color: str, modulus: int, surplus: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Move ``color`` surpluses from cut-side into merge-side clusters.

    ``surplus`` holds every baseline cluster's live ``color`` count mod
    ``modulus``.  A cluster with a surplus of at most half the modulus is
    cut-side (cheaper to shed it), one with more is merge-side (cheaper to
    top up).  Donors give in key order.  Receivers are served by
    non-increasing cut cost s (size - s) minus merge cost (modulus - s) size,
    at the live cluster sizes; the stable sort breaks ties by key.  Stops
    when either side runs out.

    Returns (balanced keys: surplus-free clusters, then the donors the pass
    emptied; leftover cut keys; leftover merge keys).  A partly served
    cluster stays in its leftover list.
    """
    balanced = np.flatnonzero(surplus == 0).tolist()
    cut = np.flatnonzero((surplus > 0) & (2 * surplus <= modulus))
    merge = np.flatnonzero(2 * surplus > modulus)
    supply = surplus[cut]
    demand = np.empty(0, dtype=np.int64)
    if merge.shape[0]:  # then modulus < 2n, so the int64 arithmetic is exact
        s = surplus[merge]
        size = state.counts()[merge].sum(axis=1)
        merge = merge[np.argsort((modulus - s) * size - s * (size - s), kind="stable")]
        demand = modulus - surplus[merge]
    i, j, k = pair_off(supply, demand)
    state.move(cut[i], merge[j], color, k)
    moved = k.sum()
    di = np.searchsorted(np.cumsum(supply), moved, side="right")
    mi = np.searchsorted(np.cumsum(demand), moved, side="right")
    return balanced + cut[:di].tolist(), cut[di:].tolist(), merge[mi:].tolist()


def make_donor_blocks(
    state: ClusterState, color: str, modulus: int, balanced: list[int], receivers: list[int], discount: np.ndarray
) -> np.ndarray:
    """Block table of one merge color's donors: ``balanced``, then ``receivers``.

    Returns an int64 table with rows (key, s0, nsub, size_eff, cost0) and
    one column per donor, fixed at loop entry.  A donor's ``color`` points
    split into block 0, its surplus of ``s0`` points, and ``nsub`` full
    blocks of ``modulus``.  ``size_eff`` is its live size less its
    ``discount`` (points about to be packed away).  Block 0 costs
    s0 (size_eff - s0), minus a receiver's merge cost (modulus - s0) size,
    which cutting that block saves; full block z costs
    modulus (size_eff - z modulus - s0).
    """
    key = np.array(balanced + receivers, dtype=np.int64)
    counts = state.counts()[key]
    size = counts.sum(axis=1)
    nsub, s0 = _divmod(counts[:, int(color == "blue")], modulus, state.instance.n)
    size_eff = size - discount
    cost0 = s0 * (size_eff - s0)
    if receivers:  # a merge-side cluster has 2 s0 > modulus, so modulus < 2n
        r = len(balanced)
        cost0[r:] -= (modulus - s0[r:]) * size[r:]
    return np.stack((key, s0, nsub, size_eff, cost0))


def pack_extras(state: ClusterState, donors: list[int], color: str, modulus: int) -> int:
    """Cut every donor's surplus and pack into extra clusters of modulus size.

    Donors are consumed in the given order, first-fit.  Returns the number
    of extra clusters created.
    """
    surplus = _divmod(state.counts()[donors, int(color == "blue")], modulus, state.instance.n)[1]
    given = np.flatnonzero(surplus)
    donors, supply = np.asarray(donors, dtype=np.int64)[given], surplus[given]
    total = int(supply.sum())
    if total == 0:
        return 0
    if total % modulus:
        raise SurplusNotMultiple(f"total {color} surplus {total} not a multiple of {modulus}")
    created = total // modulus
    i, j, k = pair_off(supply, np.full(created, modulus))
    state.move(donors[i], state.new_cluster(created) + j, color, k)
    return created


def run_merge_subsets(
    state: ClusterState,
    *,
    color: str,
    modulus: int,
    donors: np.ndarray,
    receivers: list[int],
    meta_prefix: str,
) -> None:
    """Fill every receiver's deficit by cutting minimum-cost donor blocks.

    ``donors`` is the color's ``make_donor_blocks`` table.  ``receivers``
    come in their fixed priority order (the order deficits are topped up
    in), and a cursor walks them.  Block costs are static; selection is a
    min-heap over (cost, donor key, block index).  When a still-deficient
    donor's own surplus block is cut, that donor stops being a receiver:
    its deficit drops to 0 and the cursor skips it.  A receiver that has
    received any points leaves the donor pool, since its entry-time block
    table no longer describes it.
    """
    count = state.counts()[receivers, int(color == "blue")].tolist()
    deficit = {r: -c % modulus for r, c in zip(receivers, count)}
    w_initial = sum(deficit.values())
    meta = state.transcript.meta
    meta[f"{meta_prefix}_w"] = w_initial
    meta[f"{meta_prefix}_subsets_cut"] = 0
    if w_initial == 0:
        return
    if w_initial % modulus:
        raise InternalDeficitMismatch(
            f"outstanding {color} deficit {w_initial} not a multiple of {modulus}"
        )

    # Each donor's first block: its surplus, else full block 1.  A deficit
    # to fill means modulus < 2n, so these costs fit in int64.
    key, s0, nsub, size_eff, cost0 = donors
    z = (s0 == 0).astype(np.int64)
    row = np.flatnonzero(z <= nsub)
    cost = np.where(z == 0, cost0, modulus * (size_eff - z * modulus - s0))[row]
    # (cost, key, z) is unique, so the table row never takes part in the order
    heap = list(zip(cost.tolist(), key[row].tolist(), z[row].tolist(), row.tolist()))
    heapq.heapify(heap)

    stale: set[int] = set()  # receivers that got points
    moves: list[tuple[int, int, int]] = []  # (donor, receiver, points), made in one call at the end
    j = 0  # every receiver before the cursor has deficit 0
    w = w_initial
    cuts = 0
    while w > 0:
        while heap and heap[0][1] in stale:
            heapq.heappop(heap)
        if not heap:
            raise InternalDeficitMismatch(f"no {color} blocks left, deficit {w}")
        _, c, z, i = heapq.heappop(heap)
        _, s, nb, se, _ = donors[:, i].tolist()
        if z == 0 and deficit.get(c):
            # its own deficit is abandoned: cutting the surplus balances it
            w -= deficit[c]
            deficit[c] = 0
        remaining = s if z == 0 else modulus
        while remaining and j < len(receivers):
            r = receivers[j]
            g = min(deficit[r], remaining)
            if g:
                moves.append((c, r, g))
                deficit[r] -= g
                remaining -= g
                w -= g
                stale.add(r)
            if deficit[r] == 0:
                j += 1
        if remaining:
            raise InternalDeficitMismatch(
                f"{remaining} cut {color} points found no deficit to fill"
            )
        cuts += 1
        z += 1
        if z <= nb:  # a stale donor's entry is dropped when it surfaces
            heapq.heappush(heap, (modulus * (se - z * modulus - s), c, z, i))

    src, dst, count = zip(*moves)
    state.move(src, dst, color, count)
    meta[f"{meta_prefix}_subsets_cut"] = cuts
    if cuts * modulus != w_initial:
        raise InternalDeficitMismatch(
            f"cut {cuts} blocks for total deficit {w_initial} (modulus {modulus})"
        )
