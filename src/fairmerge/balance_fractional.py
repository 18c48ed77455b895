"""Balancing to multiples of the ratio parts: 7.5-close for p:q, 3.5-close for p:1.

One body serves both steps.  Each color, red then blue, is first served by
a transfer pass moving surpluses from cut-side into merge-side clusters.
The passes then say each color's side: a color cuts when its pass leaves
a cut residue, or when no color leaves a merge residue.  A cut color's
leftover surpluses are packed into extra single-color clusters; a merge
color's leftover deficits are served by the minimum-cost block loop.
"""

from __future__ import annotations

import numpy as np

from .model import Clustering, ColoredInstance, _divmod, all_stats, validate_balance_feasible
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets, transfer
from .transcript import ClusterState, Transcript


def _balance(state: ClusterState, colors: tuple[tuple[str, int], ...], meta_prefix: str) -> list[bool]:
    """Balance each ``(color, modulus)`` in order; return whether each one cut.

    A merge color's block-loop meta keys start with ``meta_prefix.format(color)``.
    """
    stats = all_stats(state.instance, state.baseline)
    surplus = {"red": stats.s_r, "blue": stats.s_b}
    passes = [(color, modulus, *transfer(state, color, modulus, surplus[color])) for color, modulus in colors]
    merging = any(merge_rem for *_, merge_rem in passes)
    cuts = [bool(cut_rem) or not merging for *_, cut_rem, _ in passes]
    packed = [side for side, cut in zip(passes, cuts) if cut]
    merged = [side for side, cut in zip(passes, cuts) if not cut]

    # Every donor table is fixed before any residue move.  A table discounts
    # the surplus of each color that is about to be packed away.
    counts, n = state.counts(), state.instance.n
    discount = np.zeros(counts.shape[0], dtype=np.int64)
    for color, modulus, *_ in packed:
        discount += _divmod(counts[:, int(color == "blue")], modulus, n)[1]
    tables = [
        make_donor_blocks(state, color, modulus, balanced, merge_rem, discount[balanced + merge_rem])
        for color, modulus, balanced, _, merge_rem in merged
    ]
    for color, modulus, _, cut_rem, _ in packed:
        pack_extras(state, cut_rem, color, modulus)
    for (color, modulus, _, _, merge_rem), donors in zip(merged, tables):
        run_merge_subsets(
            state,
            color=color,
            modulus=modulus,
            donors=donors,
            receivers=merge_rem,
            meta_prefix=meta_prefix.format(color),
        )
    return cuts


def _balance_pq(state: ClusterState) -> None:
    instance = state.instance
    cuts = _balance(state, (("red", instance.q), ("blue", instance.p)), "{}_merge")
    state.transcript.meta["case"] = "-".join("cut" if cut else "merge" for cut in cuts)


def balance_pq(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Rearrange so blue counts are multiples of p and red counts of q."""
    validate_balance_feasible(instance)
    state = ClusterState(instance, clustering)
    _balance_pq(state)
    return state.to_clustering(), state.transcript
