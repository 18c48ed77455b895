"""Shared machinery for the balancing, fairifying and exact passes.

``pair_off`` is the one greedy step they all repeat: hand amounts of
supply to amounts of demand in a fixed order.  ``transfer`` runs it on one
color's surpluses, from cut-side into merge-side clusters.  What is left is
finished in one of two ways.  ``pack_extras`` sweeps leftover surpluses into
fresh single-color clusters of exactly the modulus size.
``run_merge_subsets`` services leftover deficits: each donor cluster's
points of one color are divided into a size-``s`` block (its own surplus,
block 0) and full blocks of the modulus size, each block carrying a fixed
cutting cost; the cheapest available block is cut and dealt into the
deficit clusters in priority order until every deficit is filled.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import InternalDeficitMismatch, SurplusNotMultiple
from .transcript import ClusterState


def pair_off(supply: Sequence[int], demand: Sequence[int]) -> list[tuple[int, int, int]]:
    """Greedy pairing of two lists of positive amounts, both walked in order.

    Each step hands ``k = min(supply left at i, demand left at j)`` from
    supply ``i`` to demand ``j`` and yields ``(i, j, k)``; an exhausted
    amount moves its cursor on (both cursors on a tie).  Stops as soon as
    either side runs out, so the triples carry ``min(sum(supply),
    sum(demand))`` in total.
    """
    steps: list[tuple[int, int, int]] = []
    ns, nd = len(supply), len(demand)
    i = j = 0
    s = supply[0] if ns else 0
    d = demand[0] if nd else 0
    while i < ns and j < nd:
        k = min(s, d)
        steps.append((i, j, k))
        s -= k
        d -= k
        if s == 0:
            i += 1
            if i < ns:
                s = supply[i]
        if d == 0:
            j += 1
            if j < nd:
                d = demand[j]
    return steps


def _counter(state: ClusterState, color: str):
    return state.blue_count if color == "blue" else state.red_count


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
    supply = surplus[cut].tolist()
    demand: list[int] = []
    if merge.shape[0]:  # then modulus < 2n, so the int64 arithmetic is exact
        s = surplus[merge]
        size = np.array([state.size(c) for c in merge.tolist()], dtype=np.int64)
        merge = merge[np.argsort((modulus - s) * size - s * (size - s), kind="stable")]
        demand = (modulus - surplus[merge]).tolist()
    cut, merge = cut.tolist(), merge.tolist()
    steps = pair_off(supply, demand)
    for i, j, k in steps:
        state.move(cut[i], merge[j], color, k)
    moved = sum(k for _, _, k in steps)
    di = bisect_right(list(accumulate(supply)), moved)
    mi = bisect_right(list(accumulate(demand)), moved)
    return balanced + cut[:di], cut[di:], merge[mi:]


@dataclass(frozen=True)
class DonorBlocks:
    """Static block table of one donor cluster, fixed at loop entry."""

    size_eff: int  # cluster size, minus the opposite-color surplus when told to
    s0: int  # own-color surplus at entry (size of block 0)
    nsub: int  # number of full modulus-size blocks
    mcost0: int  # deficit * size, nonzero only for still-deficient donors
    is_receiver: bool

    def block_cost(self, z: int, modulus: int) -> int:
        if z == 0:
            base = self.s0 * (self.size_eff - self.s0)
            return base - self.mcost0 if self.is_receiver else base
        return modulus * (self.size_eff - (z * modulus + self.s0))


def make_donor_blocks(
    state: ClusterState,
    key: int,
    color: str,
    modulus: int,
    opposite_surplus: int,
    is_receiver: bool,
) -> DonorBlocks:
    cnt = _counter(state, color)(key)
    s0 = cnt % modulus
    size = state.size(key)
    mcost0 = (modulus - s0) * size if is_receiver else 0
    return DonorBlocks(
        size_eff=size - opposite_surplus,
        s0=s0,
        nsub=(cnt - s0) // modulus,
        mcost0=mcost0,
        is_receiver=is_receiver,
    )


def pack_extras(state: ClusterState, donors: list[int], color: str, modulus: int) -> int:
    """Cut every donor's surplus and pack into extra clusters of modulus size.

    Donors are consumed in the given order, first-fit.  Returns the number
    of extra clusters created.
    """
    count = _counter(state, color)
    surplus = [(c, s) for c in donors if (s := count(c) % modulus)]
    total = sum(s for _, s in surplus)
    if total == 0:
        return 0
    if total % modulus:
        raise SurplusNotMultiple(f"total {color} surplus {total} not a multiple of {modulus}")
    extras: list[int] = []
    for i, j, k in pair_off([s for _, s in surplus], [modulus] * (total // modulus)):
        if j == len(extras):
            extras.append(state.new_cluster())
        state.move(surplus[i][0], extras[j], color, k)
    return total // modulus


def run_merge_subsets(
    state: ClusterState,
    *,
    color: str,
    modulus: int,
    donors: dict[int, DonorBlocks],
    receivers: list[int],
    meta_prefix: str,
) -> None:
    """Fill every receiver's deficit by cutting minimum-cost donor blocks.

    ``receivers`` come in their fixed priority order (the order deficits are
    topped up in).  Block costs are static; selection is a min-heap over
    (cost, donor key, block index).  When a still-deficient donor's own
    surplus block is cut, that donor stops being a receiver: its deficit
    disappears from the outstanding total.  A receiver that has received
    any points leaves the donor pool, since its entry-time block table no
    longer describes it.
    """
    count = _counter(state, color)
    deficit = {r: (modulus - count(r) % modulus) % modulus for r in receivers}
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

    heap: list[tuple[int, int, int]] = []
    for c, blocks in donors.items():
        if blocks.s0 > 0:
            heapq.heappush(heap, (blocks.block_cost(0, modulus), c, 0))
        elif blocks.nsub >= 1:
            heapq.heappush(heap, (blocks.block_cost(1, modulus), c, 1))

    active_receiver = {r for r in receivers if deficit[r] > 0}
    active_donor = set(donors)
    w = w_initial
    cuts = 0
    while w > 0:
        while heap and heap[0][1] not in active_donor:
            heapq.heappop(heap)
        if not heap:
            raise InternalDeficitMismatch(f"no {color} blocks left, deficit {w}")
        _, c, z = heapq.heappop(heap)
        if z == 0 and c in active_receiver:
            # its own deficit is abandoned: cutting the surplus balances it
            w -= deficit[c]
            deficit[c] = 0
            active_receiver.discard(c)
        take = donors[c].s0 if z == 0 else modulus
        remaining = take
        for r in receivers:
            if remaining == 0:
                break
            if r not in active_receiver:
                continue
            g = min(deficit[r], remaining)
            state.move(c, r, color, g)
            deficit[r] -= g
            remaining -= g
            w -= g
            # any received points invalidate r's entry-time block table
            active_donor.discard(r)
            if deficit[r] == 0:
                active_receiver.discard(r)
        if remaining:
            raise InternalDeficitMismatch(
                f"{remaining} cut {color} points found no deficit to fill"
            )
        cuts += 1
        next_z = 1 if z == 0 else z + 1
        if next_z <= donors[c].nsub and c in active_donor:
            heapq.heappush(heap, (donors[c].block_cost(next_z, modulus), c, next_z))

    meta[f"{meta_prefix}_subsets_cut"] = cuts
    if cuts * modulus != w_initial:
        raise InternalDeficitMismatch(
            f"cut {cuts} blocks for total deficit {w_initial} (modulus {modulus})"
        )
