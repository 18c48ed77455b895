import pytest

from fairmerge import (
    closest_fair,
    dist_fast,
    find_closest_fair_11,
    gen_random,
    is_fair,
    oracle_closest_fair,
)
from fairmerge.errors import InfeasibleFairness, WrongRatio

from support import audit_transcript, counts_instance, members, mono_instance


def _blue_ids(inst, points):
    return [u for u in points if inst.role_blue_mask[u]]


def test_make_it_fair_examples():
    # 5B + 3R keeps its fair part of 6; its 2 highest blues leave as a block
    # and are then paired with the lone 2R cluster
    inst, clu = counts_instance([(5, 3), (0, 2)], p=1, q=1)
    out, _, transcript = closest_fair(inst, clu)
    split = transcript.moves[0]
    assert (split.src, split.dst) == (0, 2)
    assert list(split.points) == _blue_ids(inst, members(clu)[0])[-2:]
    assert sorted(len(m) for m in members(out)) == [4, 6]
    audit_transcript(clu, out, transcript)

    # an already fair cluster has no leftover: nothing moves
    inst, clu = counts_instance([(4, 4)], p=1, q=1)
    out, _, transcript = closest_fair(inst, clu)
    assert out == clu and not transcript.moves

    # a one-color cluster is its own leftover: no split move, only the pairing
    inst, clu = counts_instance([(0, 2), (2, 0)], p=1, q=1)
    out, _, transcript = closest_fair(inst, clu)
    assert len(transcript.moves) == 1 and out.k == 1


def test_make_it_fair_parts_partition_the_cluster():
    inst, clu = counts_instance([(5, 3), (0, 2)], p=1, q=1)
    out, _, transcript = closest_fair(inst, clu)
    leftover = transcript.moves[0].points
    first = members(clu)[0]
    fair = [u for u in first if out.labels[u] == out.labels[first[0]]]
    assert len(fair) == 6
    assert sorted(fair + list(leftover)) == list(first)


def test_greedy_merge_sizes_2_3_vs_1_4():
    inst, clu = mono_instance([2, 3], [1, 4])
    fair = find_closest_fair_11(inst, clu)
    assert sorted(len(c) for c in members(fair)) == [2, 2, 6]
    # distance from the monochromatic input equals (sum R^2 + sum B^2) / 2
    assert dist_fast(clu, fair) == 15


def test_greedy_merge_single_pairing():
    inst, clu = mono_instance([4], [4])
    fair = find_closest_fair_11(inst, clu)
    assert fair.k == 1 and len(members(fair)[0]) == 8


def test_greedy_merge_splits_pay_square_costs():
    inst, clu = mono_instance([1, 1], [2])
    fair = find_closest_fair_11(inst, clu)
    assert sorted(len(m) for m in members(fair)) == [2, 2]
    assert dist_fast(clu, fair) == 3


def test_greedy_merge_unbalanced_totals():
    inst, clu = mono_instance([2], [3])
    with pytest.raises(InfeasibleFairness):
        find_closest_fair_11(inst, clu)


def test_greedy_merge_output_is_fair_per_cluster():
    inst, clu = mono_instance([3, 1, 5], [2, 2, 5])
    out = find_closest_fair_11(inst, clu)
    for cluster in members(out):
        assert 2 * len(_blue_ids(inst, cluster)) == len(cluster)


def test_greedy_pairing_direction_and_ties():
    # red blocks 0, 1 of sizes [1, 3], blue blocks 2, 3 of sizes [2, 2]:
    # red 0 is used up by 1 blue from block 2; the blue left in block 2 is
    # used up by 1 red from block 1; then red 1 and blue 3 tie at 2, which
    # counts as the red block used up, so the blues join it
    inst, clu = mono_instance([1, 3], [2, 2])
    out, _, transcript = closest_fair(inst, clu)
    steps = [(m.src, m.dst, len(m.points)) for m in transcript.moves]
    assert steps == [(2, 0, 1), (1, 2, 1), (3, 1, 2)]
    assert is_fair(inst, out)
    audit_transcript(clu, out, transcript)


def test_greedy_cost_formula_on_random_mono_inputs():
    import random

    rnd = random.Random(17)
    for _ in range(40):
        t = rnd.randrange(1, 4)
        m = rnd.randrange(1, 4)
        reds = [rnd.randrange(1, 5) for _ in range(t)]
        blues = [rnd.randrange(1, 5) for _ in range(m)]
        diff = sum(reds) - sum(blues)
        if diff > 0:
            blues.append(diff)
        elif diff < 0:
            reds.append(-diff)
        inst, clu = mono_instance(reds, blues)
        fair = find_closest_fair_11(inst, clu)
        expected = (sum(r * r for r in reds) + sum(b * b for b in blues)) // 2
        assert dist_fast(clu, fair) == expected, (reds, blues)


def test_identity_on_already_fair_input():
    inst, clu = counts_instance([(2, 2), (3, 3)], p=1, q=1)
    out = find_closest_fair_11(inst, clu)
    assert out.labels == clu.labels
    assert dist_fast(clu, out) == 0


def test_wrong_ratio_rejected():
    inst, clu = counts_instance([(4, 2)], p=2, q=1)
    with pytest.raises(WrongRatio):
        find_closest_fair_11(inst, clu)


def test_bicolored_plus_mono_cluster_matches_oracle():
    # {3R+5B} and {2R}: totals 5R/5B
    inst, clu = counts_instance([(5, 3), (0, 2)], p=1, q=1)
    out = find_closest_fair_11(inst, clu)
    assert is_fair(inst, out)
    assert dist_fast(clu, out) == oracle_closest_fair(inst, clu).optimum


def test_optimality_on_random_instances():
    for seed in range(220):
        n = [6, 8, 10][seed % 3]
        inst, clu = gen_random(n, 1, 1, 1 + seed % n, seed=seed)
        out, _, transcript = closest_fair(inst, clu)
        assert is_fair(inst, out), seed
        d = audit_transcript(clu, out, transcript)
        assert d == oracle_closest_fair(inst, clu).optimum, seed


def test_maximal_fair_part_preserved():
    for seed in range(60):
        n = 8
        inst, clu = gen_random(n, 1, 1, 1 + seed % n, seed=900 + seed)
        out = find_closest_fair_11(inst, clu)
        for pts in members(clu):
            blue = sum(1 for u in pts if inst.role_blue_mask[u])
            want = min(blue, len(pts) - blue)
            if want == 0:
                continue
            best = 0
            for opts in members(out):
                inter = set(pts) & set(opts)
                b = sum(1 for u in inter if inst.role_blue_mask[u])
                best = max(best, min(b, len(inter) - b))
            assert best >= want, seed
