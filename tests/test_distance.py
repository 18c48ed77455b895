import math
import random

import numpy as np
import pytest

from fairmerge import ColoredInstance, dist, dist_fast, fair_consensus, lmean, normalize
from fairmerge.distance import dist_labels, objective_key
from fairmerge.errors import EmptyInput, InvalidArgument, SizeMismatch


def test_dist_identity():
    a = normalize([0, 0, 1, 2])
    assert dist(a, a) == 0


def test_dist_three_points():
    a = normalize([0, 0, 1])  # {0,1},{2}
    b = normalize([0, 1, 1])  # {0},{1,2}
    assert dist(a, b) == 2


def test_dist_singletons_vs_one_cluster():
    a = normalize([0, 1, 2, 3])
    b = normalize([0, 0, 0, 0])
    assert dist(a, b) == 6


def test_dist_size_mismatch():
    with pytest.raises(SizeMismatch):
        dist(normalize([0]), normalize([0, 0]))
    with pytest.raises(SizeMismatch):
        dist_fast(normalize([0]), normalize([0, 0]))


def test_dist_fast_examples():
    a = normalize([0, 0, 1])
    b = normalize([0, 1, 1])
    assert dist_fast(a, a) == 0
    assert dist_fast(a, b) == 2
    assert dist_fast(normalize([0, 1, 2, 3]), normalize([0] * 4)) == 6
    assert dist_fast(normalize([0] * 5), normalize(list(range(5)))) == 10
    same = normalize([0, 0, 0, 1, 1, 1])
    assert dist_fast(same, same) == 0


def test_dist_fast_matches_naive_on_random_pairs():
    rnd = random.Random(11)
    for trial in range(40):
        n = rnd.choice([2, 5, 17, 60, 200])
        a = normalize([rnd.randrange(1 + n // 3) for _ in range(n)])
        b = normalize([rnd.randrange(1 + n // 2) for _ in range(n)])
        assert dist_fast(a, b) == dist(a, b), trial


def test_dist_is_a_metric_on_random_triples():
    rnd = random.Random(23)
    for _ in range(60):
        n = rnd.randrange(2, 10)
        a, b, c = (
            normalize([rnd.randrange(3) for _ in range(n)]) for _ in range(3)
        )
        assert dist(a, a) == 0
        assert dist(a, b) == dist(b, a)
        assert dist(a, c) <= dist(a, b) + dist(b, c)


def test_lmean_examples():
    assert lmean([3, 4], 1).value == 7
    assert lmean([3, 4], math.inf).value == 4
    assert lmean([3, 4], 2).value == pytest.approx(5.0)


def test_lmean_empty():
    with pytest.raises(EmptyInput):
        lmean([], 1)


def test_lmean_bad_exponent():
    with pytest.raises(ValueError):
        lmean([1], 0.5)


def test_lmean_large_exponent_stable():
    v = lmean([10**6, 1], 400.0).value
    assert v == pytest.approx(10**6, rel=1e-9)


def test_lmean_monotone_and_inf_lower_bound():
    rnd = random.Random(3)
    for _ in range(30):
        ds = [rnd.randrange(50) for _ in range(rnd.randrange(1, 6))]
        for ell in (1, 2, 3, 7.5):
            assert lmean(ds, math.inf).value <= lmean(ds, ell).value + 1e-9
            bumped = list(ds)
            bumped[rnd.randrange(len(ds))] += 5
            assert lmean(bumped, ell).value >= lmean(ds, ell).value


def test_objective_key_exact_integer_paths():
    assert objective_key([3, 4], 1) == 7
    assert objective_key([3, 4], math.inf) == 4
    assert objective_key([3, 4], 2) == 25
    # huge exponents stay exact through python ints
    assert objective_key([2, 2], 80) == 2 * 2**80


def test_dist_labels_on_raw_arrays_matches_naive():
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(1, 80))
        la = rng.integers(0, 1 + n // 3, n) * 7  # raw, unnormalized labels
        lb = la.copy()
        moved = rng.random(n) < rng.random()  # from nearly equal to unrelated
        lb[moved] = rng.integers(0, 2 * n, int(moved.sum()))
        expect = dist(normalize(la), normalize(lb))
        assert dist_labels(la, lb) == expect, trial
        assert dist_fast(normalize(la), normalize(lb)) == expect, trial


def test_dist_fast_counts_beyond_int32_pairs():
    n = 70_000  # one cluster of C(70000, 2) > 2**31 pairs
    together = normalize(np.zeros(n, dtype=np.int64))
    apart = normalize(np.arange(n))
    assert n * (n - 1) // 2 > 2**31
    assert dist_fast(together, apart) == n * (n - 1) // 2
    halves = normalize(np.repeat([0, 1], n // 2))
    assert dist_fast(together, halves) == (n // 2) ** 2


def test_bad_exponents_are_library_errors():
    for ell in (0.5, 0, -1, math.nan):
        with pytest.raises(InvalidArgument):
            lmean([1], ell)
        with pytest.raises(InvalidArgument):
            fair_consensus(ColoredInstance.from_colors("BR", 1, 1), [normalize([0, 0])], ell)
