import math
from itertools import islice

import numpy as np
import pytest

from fairmerge import (
    BELL_NUMBERS,
    dist_fast,
    enum_partitions,
    find_closest_fair_11,
    gen_random,
    is_balanced,
    is_fair,
    normalize,
    oracle_closest_balanced,
    oracle_closest_fair,
    oracle_consensus,
)
from fairmerge.errors import EmptyInput, InvalidArgument, TooLarge
from fairmerge.oracle import _label_chunks, _labels_matrix, oracle_cap

from support import counts_instance, mono_instance


def test_partition_counts_match_bell_numbers():
    for n in range(0, 9):
        assert sum(1 for _ in enum_partitions(n)) == BELL_NUMBERS[n]


def test_enum_small_cases():
    assert [c.labels for c in enum_partitions(1)] == [(0,)]
    assert sum(1 for _ in enum_partitions(3)) == 5
    assert sum(1 for _ in enum_partitions(5)) == 52


def test_enum_order_is_lexicographic_and_matches_matrix():
    for n in range(1, 8):
        from_gen = [c.labels for c in enum_partitions(n)]
        assert from_gen == sorted(from_gen)
        assert from_gen == [tuple(r.tolist()) for r in _labels_matrix(n)]


def test_enum_yields_normalized_clusterings():
    for c in enum_partitions(5):
        assert normalize(c.labels).labels == c.labels


def test_too_large_rejected():
    with pytest.raises(TooLarge):
        list(enum_partitions(oracle_cap() + 1))
    with pytest.raises(InvalidArgument):
        list(enum_partitions(-1))
    inst, clu = gen_random(14, 1, 1, 2, seed=0)
    with pytest.raises(TooLarge):
        oracle_closest_fair(inst, clu)
    with pytest.raises(TooLarge):
        oracle_closest_balanced(inst, clu)


def test_env_cap_lowers_only(monkeypatch):
    monkeypatch.setenv("FAIRMERGE_ORACLE_CAP", "6")
    assert oracle_cap() == 6
    monkeypatch.setenv("FAIRMERGE_ORACLE_CAP", "99")
    assert oracle_cap() == 13
    inst, clu = gen_random(8, 1, 1, 2, seed=0)
    monkeypatch.setenv("FAIRMERGE_ORACLE_CAP", "6")
    with pytest.raises(TooLarge):
        oracle_closest_fair(inst, clu)


def test_fair_oracle_on_fair_input_is_zero():
    inst, clu = counts_instance([(2, 2), (3, 3)], p=1, q=1)
    res = oracle_closest_fair(inst, clu)
    assert res.optimum == 0
    assert res.argmin.labels == clu.labels
    assert res.partitions_enumerated == BELL_NUMBERS[10]


def test_fair_oracle_monochromatic_square_formula():
    inst, clu = mono_instance([2, 3], [1, 4])
    res = oracle_closest_fair(inst, clu)
    assert res.optimum == 15
    assert dist_fast(clu, find_closest_fair_11(inst, clu)) == 15


def test_fair_oracle_agrees_with_exact_algorithm():
    for seed in range(30):
        inst, clu = gen_random(8, 1, 1, 1 + seed % 8, seed=seed)
        res = oracle_closest_fair(inst, clu)
        assert res.optimum == dist_fast(clu, find_closest_fair_11(inst, clu))
        assert is_fair(inst, res.argmin)
        assert dist_fast(clu, res.argmin) == res.optimum


def test_balanced_oracle_balanced_input_zero():
    inst, clu = counts_instance([(3, 1), (6, 2)], p=3, q=1)
    assert oracle_closest_balanced(inst, clu).optimum == 0


def test_balanced_oracle_accepts_fair_infeasible_totals():
    # all-blue instance: balancing is possible, exact fairness is not
    inst, clu = counts_instance([(5, 0), (7, 0)], p=4, q=1)
    res = oracle_closest_balanced(inst, clu)
    assert res.optimum <= 11
    assert is_balanced(inst, res.argmin)


def test_balanced_at_most_fair_optimum():
    for seed in range(20):
        p = [2, 3][seed % 2]
        n = (p + 1) * 2
        inst, clu = gen_random(n, p, 1, 1 + seed % n, seed=seed)
        bal = oracle_closest_balanced(inst, clu).optimum
        fair = oracle_closest_fair(inst, clu).optimum
        assert bal <= fair


def test_oracle_invariant_under_relabeling_and_color_permutation():
    inst, clu = gen_random(9, 2, 1, 3, seed=77)
    base = oracle_closest_fair(inst, clu).optimum
    # relabel clusters (reverse ids) -> same partition, same optimum
    relabeled = normalize([clu.k - 1 - lab for lab in clu.labels])
    assert oracle_closest_fair(inst, relabeled).optimum == base
    # swap two same-colored points -> isomorphic instance, same optimum
    pts = [i for i in range(inst.n) if inst.role_blue_mask[i]][:2]
    labels = list(clu.labels)
    labels[pts[0]], labels[pts[1]] = labels[pts[1]], labels[pts[0]]
    assert oracle_closest_fair(inst, normalize(labels)).optimum == base


def test_consensus_oracle_single_input_matches_fair_oracle():
    inst, clu = gen_random(8, 1, 1, 3, seed=5)
    want = oracle_closest_fair(inst, clu).optimum
    for ell in (1, 2, math.inf):
        assert oracle_consensus(inst, [clu], ell).optimum == pytest.approx(want)


def test_consensus_oracle_identical_fair_inputs():
    inst, clu = counts_instance([(2, 2), (2, 2)], p=1, q=1)
    res = oracle_consensus(inst, [clu, clu], math.inf)
    assert res.optimum == 0


def test_consensus_oracle_center_bounded_by_pairwise():
    inst, a = gen_random(8, 1, 1, 2, seed=21)
    _, b = gen_random(8, 1, 1, 5, seed=22)
    res = oracle_consensus(inst, [a, b], math.inf)
    fair_a = oracle_closest_fair(inst, a)
    # center objective can never beat half the distance between the inputs
    # and never exceeds the best single-input fair optimum plus that distance
    assert res.optimum >= dist_fast(a, b) / 2 - 1e-9 or res.optimum <= fair_a.optimum
    assert res.optimum <= fair_a.optimum + dist_fast(a, b)


def test_consensus_oracle_empty_and_cap():
    inst, clu = gen_random(8, 1, 1, 2, seed=1)
    with pytest.raises(EmptyInput):
        oracle_consensus(inst, [], 1)
    big, bclu = gen_random(14, 1, 1, 2, seed=1)
    with pytest.raises(TooLarge):
        oracle_consensus(big, [bclu], 1)


def test_argmin_is_first_in_enumeration_order():
    inst, clu = gen_random(6, 1, 1, 3, seed=8)
    res = oracle_closest_fair(inst, clu)
    seen = 0
    for cand in enum_partitions(6):
        if is_fair(inst, cand) and dist_fast(clu, cand) == res.optimum:
            assert cand.labels == res.argmin.labels
            break
        seen += 1
    assert seen < BELL_NUMBERS[6]


def _lex_increasing(rows: np.ndarray) -> bool:
    """True when every row is lexicographically above the one before it."""
    diff = np.diff(rows.astype(np.int64), axis=0)
    first = np.argmax(diff != 0, axis=1)  # first differing column
    return bool(np.all(diff[np.arange(diff.shape[0]), first] > 0))


def test_label_chunks_at_13_extend_the_12_matrix_in_enumeration_order():
    chunks = _label_chunks(13, chunk_rows=1 << 12)
    first, second = next(chunks), next(chunks)
    expected = [c.labels for c in islice(enum_partitions(13), 300)]
    assert [tuple(r) for r in first[:300].tolist()] == expected
    assert _lex_increasing(first) and _lex_increasing(second)
    assert _lex_increasing(np.concatenate([first[-1:], second[:1]]))
