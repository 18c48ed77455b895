import pytest

from fairmerge import (
    balance_p,
    balance_pq,
    dist_fast,
    gen_random,
    is_fair,
    make_clusters_fair,
    oracle_closest_fair,
)
from fairmerge.errors import InfeasibleFairness, NotBalanced

from support import audit_transcript, counts_instance


def test_classify_and_imbalance():
    # p=2, q=1: (2B, 2R) has one spare red, (4B, 1R) misses one, (4B, 2R) is fair
    inst, clu = counts_instance([(2, 2), (4, 1), (4, 2)], p=2, q=1)
    out, transcript = make_clusters_fair(inst, clu)
    assert [(m.src, m.dst, len(m.points)) for m in transcript.moves] == [(0, 1, 1)]
    assert not inst.role_blue_mask[transcript.moves[0].points[0]]
    assert is_fair(inst, out)


def test_red_imbalance_requires_balanced():
    # feasible totals, but cluster 0's blue count 3 is not a multiple of p=2
    inst, clu = counts_instance([(3, 1), (1, 1)], p=2, q=1)
    with pytest.raises(NotBalanced):
        make_clusters_fair(inst, clu)


def test_identity_on_fair_input():
    inst, clu = counts_instance([(4, 2), (2, 1)], p=2, q=1)
    out, transcript = make_clusters_fair(inst, clu)
    assert out.labels == clu.labels and not transcript.moves


def test_single_move_example():
    # p=2,q=1: A(4B,1R) misses one red; B(2B,2R) has one spare
    inst, clu = counts_instance([(4, 1), (2, 2)], p=2, q=1)
    out, transcript = make_clusters_fair(inst, clu)
    assert is_fair(inst, out)
    assert audit_transcript(clu, out, transcript) == 8


def test_donor_split_across_receivers():
    # donor spare 3 splits into shortfalls {2, 1}
    inst, clu = counts_instance([(2, 4), (4, 0), (2, 0)], p=2, q=1)
    out, transcript = make_clusters_fair(inst, clu)
    assert is_fair(inst, out)
    d = audit_transcript(clu, out, transcript)
    # moves: 2 reds then 1 red out of the same donor
    sizes = [len(m.points) for m in transcript.moves]
    assert sizes == [2, 1]
    assert d == dist_fast(clu, out)


def test_rejects_unbalanced_input():
    inst, clu = counts_instance([(3, 1), (3, 2)], p=2, q=1)
    with pytest.raises(NotBalanced):
        make_clusters_fair(inst, clu)


def test_rejects_infeasible_totals():
    inst, clu = counts_instance([(4, 1)], p=2, q=1)
    with pytest.raises(InfeasibleFairness):
        make_clusters_fair(inst, clu)


def test_only_reds_move_and_conservation():
    for seed in range(60):
        p, q = [(2, 1), (3, 1), (3, 2)][seed % 3]
        n = (p + q) * max(1, 9 // (p + q))
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=seed)
        balanced, _ = balance_p(inst, clu) if q == 1 else balance_pq(inst, clu)
        out, transcript = make_clusters_fair(inst, balanced)
        assert is_fair(inst, out), seed
        audit_transcript(balanced, out, transcript)
        moved = [u for m in transcript.moves for u in m.points]
        assert all(not inst.role_blue_mask[u] for u in moved), seed
        assert len(moved) == len(set(moved)), seed


def test_ratio_bound_quick_sweep():
    for seed in range(80):
        p, q = [(2, 1), (3, 1), (3, 2)][seed % 3]
        n = (p + q) * max(1, 9 // (p + q))
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=500 + seed)
        balanced, _ = balance_p(inst, clu) if q == 1 else balance_pq(inst, clu)
        out, _ = make_clusters_fair(inst, balanced)
        d = dist_fast(balanced, out)
        opt = oracle_closest_fair(inst, balanced).optimum
        assert d <= 3 * opt or d == opt == 0, (seed, d, opt)
