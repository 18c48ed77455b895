import numpy as np
import pytest

from fairmerge import (
    SplitMix64,
    gen_3partition_reduction,
    gen_random,
    oracle_closest_fair,
    validate_feasible,
)
from fairmerge.errors import Infeasible, InvalidArgument, NotDivisibleBy3, OutOfRangeElement
from fairmerge.generators import splitmix64_draws

from support import has_three_partition, members


def test_splitmix64_reference_stream():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    rng0 = SplitMix64(0)
    assert rng0.next_u64() == 16294208416658607535
    assert rng0.next_u64() == 7960286522194355700


def test_vectorized_splitmix_draws_match_the_reference_stream():
    for seed in (0, 1, 2**64 - 1):
        rng = SplitMix64(seed)
        reference = [rng.next_u64() for _ in range(300)]
        assert splitmix64_draws(seed, 0, 300).tolist() == reference
        assert splitmix64_draws(seed, 123, 100).tolist() == reference[123:223]
    assert splitmix64_draws(5, 0, 0).tolist() == []


def test_gen_random_deterministic():
    a = gen_random(6, 1, 1, 2, seed=7)
    b = gen_random(6, 1, 1, 2, seed=7)
    assert a[0].colors == b[0].colors
    assert a[1].labels == b[1].labels
    c = gen_random(6, 1, 1, 2, seed=8)
    assert a[0].colors != c[0].colors or a[1].labels != c[1].labels


def test_gen_random_always_feasible():
    for seed in range(40):
        p, q = [(1, 1), (2, 1), (3, 2), (5, 3)][seed % 4]
        n = (p + q) * (1 + seed % 3)
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=seed)
        validate_feasible(inst)
        assert clu.k >= 1
        assert all(len(m) > 0 for m in members(clu))


def test_gen_random_singletons():
    _, clu = gen_random(6, 1, 1, 6, seed=3)
    assert clu.k == 6
    assert all(len(m) == 1 for m in members(clu))


def test_gen_random_errors():
    with pytest.raises(Infeasible):
        gen_random(2, 3, 1, 1, seed=0)  # n < p + q
    with pytest.raises(Infeasible):
        gen_random(7, 2, 1, 1, seed=0)  # totals cannot hit the ratio exactly
    with pytest.raises(Infeasible):
        gen_random(6, 1, 1, 7, seed=0)  # more clusters than points
    for p, q in [(0, 0), (2, 0), (-1, 1)]:
        with pytest.raises(InvalidArgument):
            gen_random(10, p, q, 2, seed=1)
    # n, k and seed must be integers: no truncation, no bare TypeError
    for n, k, seed in [(10.0, 2, 1), (10, 2.0, 1), (10, 2, 1.5), (10, 2, True), (True, 1, 1), ("10", 2, 1)]:
        with pytest.raises(InvalidArgument):
            gen_random(n, 1, 1, k, seed=seed)
    # numpy integers are integers
    same = gen_random(np.int64(10), 1, 1, np.int32(2), seed=np.uint64(1))
    assert same[1].labels == gen_random(10, 1, 1, 2, seed=1)[1].labels


def test_reduction_tau_p2():
    red = gen_3partition_reduction([3, 3, 4], p=2)
    assert red.t_sum == 10
    assert red.tau == 200
    assert not red.oracle_verifiable  # 30 points
    sizes = sorted(len(m) for m in members(red.clustering))
    assert sizes == [3, 3, 4, 20]


def test_reduction_tau_p3():
    red = gen_3partition_reduction([3, 3, 4], p=3)
    assert red.t_sum == 10
    assert red.tau == 333


def test_reduction_shape_q1():
    red = gen_3partition_reduction([1, 1, 1], p=2)
    inst, clu = red.instance, red.clustering
    assert inst.n == 9 and red.oracle_verifiable
    blues = [m for m in members(clu) if all(inst.role_blue_mask[u] for u in m)]
    assert [len(m) for m in blues] == [6]
    reds = [m for m in members(clu) if not any(inst.role_blue_mask[u] for u in m)]
    assert sorted(len(m) for m in reds) == [1, 1, 1]


def test_reduction_yes_instance_within_tau():
    for p in (2, 3):
        red = gen_3partition_reduction([1, 1, 1], p=p)
        assert has_three_partition(red.elements)
        assert red.oracle_verifiable
        res = oracle_closest_fair(red.instance, red.clustering)
        assert res.optimum <= red.tau, (p, res.optimum, red.tau)


def test_reduction_q_scaling_marked_experimental():
    red = gen_3partition_reduction([3, 3, 4], p=3, q=2)
    assert red.experimental
    assert red.tau == 3 * 2 * 34 + (9 / 2) * 66
    # red clusters scale by q
    inst, clu = red.instance, red.clustering
    red_sizes = sorted(
        len(m) for m in members(clu) if not any(inst.role_blue_mask[u] for u in m)
    )
    assert red_sizes == [6, 6, 8]


def test_reduction_errors():
    with pytest.raises(NotDivisibleBy3):
        gen_3partition_reduction([1, 1], p=2)
    with pytest.raises(NotDivisibleBy3):
        gen_3partition_reduction([1, 1, 2, 1, 1, 1], p=2)  # sum 7 not 2 triples
    with pytest.raises(OutOfRangeElement):
        gen_3partition_reduction([1, 2, 3], p=2)  # 1 <= T/4 and 3 >= T/2
    with pytest.raises(Infeasible):
        gen_3partition_reduction([1, 1, 1], p=1)
    with pytest.raises(InvalidArgument):
        gen_3partition_reduction(["a"], 2)
    # non-integers are refused, not truncated; bools are not integers here
    for elements, p, q in [([3.9, 3, 4], 2, 1), (["3", 3, 4], 2, 1), ([3, True, 4], 2, 1), (7, 2, 1),
                           ([3, 3, 4], 2.0, 1), ([3, 3, 4], True, 1), ([3, 3, 4], 3, 1.0)]:
        with pytest.raises(InvalidArgument):
            gen_3partition_reduction(elements, p, q)
    with pytest.warns(RuntimeWarning):
        assert gen_3partition_reduction(np.array([3, 3, 4]), np.int64(2)).elements == (3, 3, 4)


def test_reduction_warns_beyond_cap():
    with pytest.warns(RuntimeWarning):
        gen_3partition_reduction([3, 3, 4], p=2)


def test_has_three_partition_helper():
    assert has_three_partition([1, 1, 1])
    assert has_three_partition([3, 3, 4, 2, 4, 4])  # triples (3,3,4) and (2,4,4)
    assert not has_three_partition([4, 4, 4, 4, 4, 6])
