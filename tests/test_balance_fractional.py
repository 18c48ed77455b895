import pytest

from fairmerge import (
    balance_p,
    balance_pq,
    dist_fast,
    gen_random,
    is_balanced,
    oracle_closest_balanced,
)
from fairmerge.errors import InfeasibleFairness
from fairmerge.model import all_stats

from support import assert_subset_identities, audit_transcript, counts_instance, members, swap_colors


def _pq_invariants(inst, clu):
    out, transcript = balance_pq(inst, clu)
    assert is_balanced(inst, out)
    audit_transcript(clu, out, transcript)
    assert_subset_identities(transcript, p=inst.p, q=inst.q)
    return out, transcript


def _case(inst, clu) -> str:
    return balance_pq(inst, clu)[1].meta["case"]


def test_detect_case_already_balanced_is_cut_cut():
    inst, clu = counts_instance([(3, 2), (6, 4)], p=3, q=2)
    assert _case(inst, clu) == "cut-cut"


def test_detect_case_merge_deficit_only_blue():
    # one blue-merge cluster, no blue surplus anywhere, red sides tied
    inst, clu = counts_instance([(2, 2), (2, 2), (2, 0)], p=3, q=2)
    assert _case(inst, clu) == "merge-merge"


def test_detect_case_matches_direct_sums():
    # reference: per color, total cut-side surplus against total merge-side
    # deficit; ties go to the cut side
    for seed in range(40):
        p, q = [(3, 2), (5, 2), (5, 3)][seed % 3]
        n = (p + q) * max(1, 10 // (p + q))
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=seed)
        st = all_stats(inst, clu)
        red_cuts, blue_cuts = 2 * st.s_r <= q, 2 * st.s_b <= p
        rc, rm = int(st.s_r[red_cuts].sum()), int((q - st.s_r[~red_cuts]).sum())
        bc, bm = int(st.s_b[blue_cuts].sum()), int((p - st.s_b[~blue_cuts]).sum())
        got = _case(inst, clu)
        if rc >= rm and bc >= bm:
            assert got == "cut-cut"
        elif rc > rm and bc < bm:
            assert got == "cut-merge"
        elif rc < rm and bc > bm:
            assert got == "merge-cut"
        else:
            assert got == "merge-merge"


def test_balance_pq_identity_when_balanced():
    inst, clu = counts_instance([(3, 2), (3, 4)], p=3, q=2)
    out, transcript = balance_pq(inst, clu)
    assert out.labels == clu.labels and not transcript.moves


def test_balance_pq_worked_example():
    # p=3,q=2: A(4B,3R) and B(5B,3R): one blue transfer, then a red extra
    inst, clu = counts_instance([(4, 3), (5, 3)], p=3, q=2)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "cut-cut"
    assert dist_fast(clu, out) == 26
    # a fresh all-red cluster of size q appears
    reds_only = [
        m for m in members(out)
        if len(m) == 2 and not any(inst.role_blue_mask[u] for u in m)
    ]
    assert len(reds_only) == 1


def test_balance_pq_infeasible_totals():
    inst, clu = counts_instance([(4, 3)], p=3, q=2)
    with pytest.raises(InfeasibleFairness):
        balance_pq(inst, clu)


def test_balance_pq_on_integral_ratio_matches_guarantee():
    # q = 1 inputs run through the fractional path and stay within 3.5x
    for seed in range(60):
        p = [2, 3][seed % 2]
        n = (p + 1) * (2 if 2 * (p + 1) <= 11 else 1)
        inst, clu = gen_random(n, p, 1, 1 + seed % n, seed=300 + seed)
        out, transcript = _pq_invariants(inst, clu)
        d = dist_fast(clu, out)
        opt = oracle_closest_balanced(inst, clu).optimum
        assert 2 * d <= 7 * opt or d == opt == 0, (seed, d, opt)
        # cross-check the integral path solves the same instance
        out_p, _ = balance_p(inst, clu)
        assert is_balanced(inst, out_p)


def test_merge_merge_crafted_small():
    inst, clu = counts_instance([(2, 2), (2, 2), (2, 0)], p=3, q=2)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["blue_merge_w"] == 3
    assert transcript.meta["blue_merge_subsets_cut"] == 1
    d = dist_fast(clu, out)
    opt = oracle_closest_balanced(inst, clu).optimum
    assert 2 * d <= 15 * opt


def test_cut_merge_crafted_small():
    inst, clu = counts_instance([(2, 1), (2, 1), (2, 2)], p=3, q=2)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "cut-merge"
    d = dist_fast(clu, out)
    opt = oracle_closest_balanced(inst, clu).optimum
    assert 2 * d <= 15 * opt


def test_merge_cut_crafted_structural():
    # red deficits dominate, blue surpluses dominate; beyond the oracle cap
    inst, clu = counts_instance([(6, 2), (7, 2), (2, 2)], p=5, q=3)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "merge-cut"
    assert transcript.meta["red_merge_w"] == 3
    assert transcript.meta["red_merge_subsets_cut"] == 1


def test_merge_merge_both_colors_structural():
    # red and blue deficits at once; doubly deficient clusters receive both
    inst, clu = counts_instance([(3, 2), (3, 2), (3, 2), (3, 0)], p=4, q=3)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "merge-merge"
    assert transcript.meta["red_merge_w"] == 3
    assert transcript.meta["blue_merge_w"] == 4


def test_color_swap_metamorphism():
    for seed in range(40):
        p, q = [(3, 2), (5, 2), (5, 3)][seed % 3]
        n = (p + q) * max(1, 10 // (p + q))
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=700 + seed)
        mirrored = swap_colors(inst)
        # mirroring flips colors and the declared ratio; roles are identical
        assert (mirrored.p, mirrored.q) == (inst.p, inst.q)
        out_a, _ = balance_pq(inst, clu)
        out_b, _ = balance_pq(mirrored, clu)
        assert out_a.labels == out_b.labels


def test_ratio_bound_quick_sweep():
    for seed in range(90):
        p, q = [(3, 2), (5, 2), (5, 3)][seed % 3]
        n = (p + q) * (2 if 2 * (p + q) <= 11 else 1)
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=seed)
        out, _ = _pq_invariants(inst, clu)
        d = dist_fast(clu, out)
        opt = oracle_closest_balanced(inst, clu).optimum
        assert 2 * d <= 15 * opt or d == opt == 0, (seed, d, opt)


def test_subroutine_cut_cut_examples():
    # red surpluses {1,1} with q=2 make one red extra
    inst, clu = counts_instance([(3, 3), (3, 3)], p=3, q=2)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta == {"case": "cut-cut"}

    # blue surpluses {2,1,2} with p=5, all cut-side: one blue extra
    inst, clu = counts_instance([(7, 3), (6, 3), (7, 3)], p=5, q=3)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta == {"case": "cut-cut"}
    separations = 2 * 8 + 1 * 8 + 2 * 8
    mixed = 2 * 1 + 2 * 2 + 1 * 2  # cross-origin pairs inside the extra
    assert dist_fast(clu, out) == separations + mixed

    # nothing to do
    inst, clu = counts_instance([(3, 2)], p=3, q=2)
    out, transcript = balance_pq(inst, clu)
    assert not transcript.moves


def test_subroutine_cut_merge_and_mirror():
    inst, clu = counts_instance([(2, 1), (2, 1), (2, 2)], p=3, q=2)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "cut-merge"

    inst, clu = counts_instance([(6, 2), (7, 2), (2, 2)], p=5, q=3)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "merge-cut"

    # identity on balanced input
    inst, clu = counts_instance([(3, 2), (6, 2)], p=3, q=2)
    out, transcript = balance_pq(inst, clu)
    assert not transcript.moves


def test_subroutine_merge_merge():
    inst, clu = counts_instance([(3, 2), (3, 2), (3, 2), (3, 0)], p=4, q=3)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta["case"] == "merge-merge"


@pytest.mark.parametrize(
    "counts, p, q, meta, steps",
    [
        # red surpluses packed into one red extra (key 3), blue into one blue extra (key 4)
        (
            [(4, 3), (4, 3), (1, 0)],
            3,
            2,
            {"case": "cut-cut"},
            [(0, 3, 1), (1, 3, 1), (0, 4, 1), (1, 4, 1), (2, 4, 1)],
        ),
        # red surpluses packed first; then cluster 0 cuts its own blue surplus,
        # priced with its red surplus discounted, into the two blue deficits
        (
            [(2, 1), (2, 1), (2, 2)],
            3,
            2,
            {"case": "cut-merge", "blue_merge_w": 3, "blue_merge_subsets_cut": 1},
            [(0, 3, 1), (1, 3, 1), (0, 2, 1), (0, 1, 1)],
        ),
        # blue surpluses packed first; then cluster 2 cuts its red surplus
        (
            [(6, 2), (7, 2), (2, 2)],
            5,
            3,
            {"case": "merge-cut", "red_merge_w": 3, "red_merge_subsets_cut": 1},
            [(0, 3, 1), (1, 3, 2), (2, 3, 2), (2, 1, 1), (2, 0, 1)],
        ),
        # both colors block-cut, red first, with no discount
        (
            [(3, 2), (3, 2), (3, 2), (3, 0)],
            4,
            3,
            {
                "case": "merge-merge",
                "red_merge_w": 3,
                "red_merge_subsets_cut": 1,
                "blue_merge_w": 4,
                "blue_merge_subsets_cut": 1,
            },
            [(0, 1, 1), (0, 2, 1), (3, 0, 1), (3, 1, 1), (3, 2, 1)],
        ),
    ],
    ids=["cut-cut", "cut-merge", "merge-cut", "merge-merge"],
)
def test_each_residue_case_runs_its_branch(counts, p, q, meta, steps):
    inst, clu = counts_instance(counts, p=p, q=q)
    out, transcript = _pq_invariants(inst, clu)
    assert transcript.meta == meta
    assert [(m.src, m.dst, len(m.points)) for m in transcript.moves] == steps

