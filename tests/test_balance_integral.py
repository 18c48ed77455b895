import numpy as np
import pytest

from fairmerge import (
    balance_p,
    dist_fast,
    gen_random,
    is_balanced,
    oracle_closest_balanced,
)
from fairmerge.errors import WrongRatio
from fairmerge.mergeloop import make_donor_blocks
from fairmerge.transcript import ClusterState

from support import assert_subset_identities, audit_transcript, counts_instance, members


def _blocks(cluster_counts, p, balanced, receivers):
    """(s0, nsub, size_eff, cost0) of each donor in a blue donor table, undiscounted."""
    inst, clu = counts_instance(cluster_counts, p=p, q=1)
    donors = balanced + receivers
    table = make_donor_blocks(ClusterState(inst, clu), "blue", p, balanced, receivers, np.zeros(len(donors), np.int64))
    assert table[0].tolist() == donors
    return [tuple(col) for col in table[1:].T.tolist()]


def test_subset_cost_examples():
    # size 10, blue 7, p=3: a surplus block of 1, two full blocks of 3
    [(s0, nsub, size_eff, cost0)] = _blocks([(7, 3)], 3, [0], [])
    assert (s0, nsub, size_eff, cost0) == (1, 2, 10, 9)
    assert 3 * (size_eff - 1 * 3 - s0) == 18  # full block 1
    # a still-deficient donor: cutting its surplus also cancels its merge cost 20
    assert _blocks([(7, 3)], 3, [], [0]) == [(1, 2, 10, 9 - 20)]
    # size 7, all blue, p=4: cutting the surplus 3 costs 3 * 4, topping up the deficit 1 costs 7
    assert _blocks([(7, 0)], 4, [0], []) == [(3, 1, 7, 12)]
    assert _blocks([(7, 0)], 4, [], [0]) == [(3, 1, 7, 12 - 7)]
    # no surplus: block 0 is empty and costs nothing
    [(s0, nsub, _, cost0)] = _blocks([(8, 2)], 4, [0], [])
    assert (cost0, s0, nsub) == (0, 0, 2)
    # one table per color: balanced donors first, then receivers, in the given order
    assert _blocks([(8, 2), (7, 3), (7, 0)], 4, [2, 0], [1]) == [(3, 1, 7, 12), (0, 2, 10, 0), (3, 1, 10, 21 - 10)]


def test_balance_p_identity_when_already_balanced():
    inst, clu = counts_instance([(6, 1), (3, 4)], p=3, q=1)
    out, transcript = balance_p(inst, clu)
    assert out.labels == clu.labels
    assert transcript.total_cost == 0 and not transcript.moves


def test_balance_p_single_transfer_example():
    # p=4: A(5 blue) is cut side, B(7 blue) is merge side; one point moves
    inst, clu = counts_instance([(5, 0), (7, 0)], p=4, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    assert audit_transcript(clu, out, transcript) == 11
    assert oracle_closest_balanced(inst, clu).optimum == 11


def test_balance_p_cut_residue_example():
    # p=3, three all-blue clusters of 4: cut one from each into a fresh cluster
    inst, clu = counts_instance([(4, 0), (4, 0), (4, 0)], p=3, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    assert audit_transcript(clu, out, transcript) == 12
    sizes = sorted(len(m) for m in members(out))
    assert sizes == [3, 3, 3, 3]


def test_balance_p_rejects_wrong_ratio():
    inst, clu = counts_instance([(6, 4)], p=3, q=2)
    with pytest.raises(WrongRatio):
        balance_p(inst, clu)


def test_cut_boundary_goes_to_cut_side():
    # p=4 and surplus exactly 2 = p/2 on both clusters: handled by cutting,
    # surpluses pack into one extra cluster instead of topping either up
    inst, clu = counts_instance([(6, 0), (6, 0)], p=4, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    sizes = sorted(len(m) for m in members(out))
    assert sizes == [4, 4, 4]
    audit_transcript(clu, out, transcript)


def test_algo_for_cut_examples():
    # every surplus is at most p/2 and nothing is merge-side: the cut residue
    # packs the surpluses into fresh all-blue clusters of size p
    inst, clu = counts_instance([(4, 0), (4, 0), (4, 0)], p=3, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    audit_transcript(clu, out, transcript)
    assert "merge_w" not in transcript.meta

    # surpluses {2, 2} with p=4: one extra split across two origins
    inst, clu = counts_instance([(6, 1), (6, 2)], p=4, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    extras = [m for m in members(out) if len(m) == 4 and all(inst.role_blue_mask[u] for u in m)]
    assert len(extras) == 1

    # surpluses {1,1,2} with p=4: cross-origin pairs inside the extra = 5
    inst, clu = counts_instance([(5, 0), (5, 0), (6, 0)], p=4, q=1)
    out, transcript = balance_p(inst, clu)
    d = audit_transcript(clu, out, transcript)
    breakage = 1 * 4 + 1 * 4 + 2 * 4  # each surplus separated from its origin
    assert d == breakage + 5


def test_algo_for_merge_minimal_feasible_residue():
    # p=4, four merge-side clusters with deficit 1 and no cut side: the
    # deficits sum to exactly p, so a single block is cut
    inst, clu = counts_instance([(3, 0), (3, 0), (3, 0), (7, 1), (8, 0)], p=4, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    audit_transcript(clu, out, transcript)
    assert transcript.meta["merge_w"] == 4
    assert transcript.meta["merge_subsets_cut"] == 1


def test_algo_for_merge_deterministic():
    inst, clu = counts_instance([(7, 1), (7, 1), (3, 2), (3, 0), (8, 0)], p=4, q=1)
    out1, t1 = balance_p(inst, clu)
    out2, t2 = balance_p(inst, clu)
    assert "merge_w" in t1.meta
    assert out1.labels == out2.labels
    assert t1.moves == t2.moves


def test_algo_for_merge_block_split_across_deficits():
    # p=5: deficits {2, 2, 1}; cluster 0 cuts its own surplus block of 3,
    # which cancels its deficit and splits 1/2 over the other two
    inst, clu = counts_instance([(3, 0), (3, 0), (4, 0), (10, 3)], p=5, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    audit_transcript(clu, out, transcript)
    assert_subset_identities(transcript, p=5, q=1)
    assert transcript.meta["merge_w"] == 5
    assert [(m.src, m.dst, len(m.points)) for m in transcript.moves] == [(0, 2, 1), (0, 1, 2)]


def test_balance_p_ratio_bound_quick_sweep():
    for seed in range(120):
        p = [2, 3, 4][seed % 3]
        sizes = [n for n in range(p + 1, 12) if n % (p + 1) == 0]
        n = sizes[seed % len(sizes)]
        inst, clu = gen_random(n, p, 1, 1 + seed % n, seed=seed)
        out, transcript = balance_p(inst, clu)
        assert is_balanced(inst, out), seed
        d = audit_transcript(clu, out, transcript)
        assert_subset_identities(transcript, p=p, q=1)
        opt = oracle_closest_balanced(inst, clu).optimum
        assert 2 * d <= 7 * opt or d == opt == 0, (seed, d, opt)


def test_merge_case_crafted_matches_invariants():
    # every cluster merge-side (p=5, surpluses 4,4,4,3): forced block cutting
    inst, clu = counts_instance([(4, 1), (4, 1), (4, 1), (8, 1)], p=5, q=1)
    out, transcript = balance_p(inst, clu)
    assert is_balanced(inst, out)
    d = audit_transcript(clu, out, transcript)
    assert_subset_identities(transcript, p=5, q=1)
    assert transcript.meta["merge_w"] == 5
    assert d == dist_fast(clu, out)
