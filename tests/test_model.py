import numpy as np
import pytest

from fairmerge import (
    Clustering,
    Color,
    ColoredInstance,
    all_stats,
    cluster_stats,
    gen_random,
    is_balanced,
    is_fair,
    normalize,
    validate_feasible,
)
from fairmerge.errors import (
    BadClusterId,
    FairmergeError,
    InfeasibleFairness,
    InvalidArgument,
    LengthMismatch,
)
from fairmerge.model import ClusterStats, _first_occurrence_dense, _first_occurrence_sorted

from support import counts_instance


def test_normalize_first_occurrence():
    c = normalize([5, 5, 9])
    assert c.labels == (0, 0, 1)
    assert c.k == 2


def test_normalize_identity():
    c = normalize([0, 1, 2])
    assert c.labels == (0, 1, 2)
    assert c.k == 3


def test_normalize_empty():
    c = normalize([], n=0)
    assert c.labels == () and c.k == 0


def test_normalize_idempotent_and_partition_preserving():
    import random

    rnd = random.Random(5)
    for _ in range(50):
        n = rnd.randrange(1, 12)
        raw = [rnd.randrange(-3, 9) for _ in range(n)]
        c = normalize(raw)
        again = normalize(c.labels)
        assert again.labels == c.labels
        # same co-clustered pairs as the raw labeling
        for i in range(n):
            for j in range(i + 1, n):
                assert (raw[i] == raw[j]) == (c.labels[i] == c.labels[j])


def test_normalize_length_mismatch():
    with pytest.raises(LengthMismatch):
        normalize([0, 1], n=3)


def test_cluster_stats_examples():
    inst, clu = counts_instance([(7, 2)], p=3, q=1)
    st = cluster_stats(inst, clu, 0)
    assert (st.s_b, st.d_b, st.s_r, st.d_r) == (1, 2, 0, 0)

    inst, clu = counts_instance([(7, 4)], p=5, q=3)
    st = cluster_stats(inst, clu, 0)
    assert (st.s_b, st.d_b, st.s_r, st.d_r) == (2, 3, 1, 2)

    inst, clu = counts_instance([(4, 2)], p=2, q=1)
    st = cluster_stats(inst, clu, 0)
    assert st.s_b == 0 and st.d_b == 0 and st.is_fair


def test_cluster_stats_bad_id():
    inst, clu = counts_instance([(2, 2)], p=1, q=1)
    with pytest.raises(BadClusterId):
        cluster_stats(inst, clu, 1)


def test_mod_identity():
    for red, blue, p, q in [(7, 11, 4, 3), (0, 9, 3, 1), (5, 5, 1, 1)]:
        st = ClusterStats.from_counts(red, blue, p, q)
        assert blue == p * (blue // p) + st.s_b
        assert red == q * (red // q) + st.s_r
        assert 0 <= st.s_b < p and 0 <= st.s_r < q
        assert (st.d_r == 0) == (st.s_r == 0)
        assert (st.d_b == 0) == (st.s_b == 0)


def test_validate_feasible_examples():
    inst, _ = counts_instance([(6, 3)], p=2, q=1)
    validate_feasible(inst)
    inst, _ = counts_instance([(5, 3)], p=2, q=1)
    with pytest.raises(InfeasibleFairness):
        validate_feasible(inst)
    inst, _ = counts_instance([(9, 6)], p=3, q=2)
    validate_feasible(inst)


def test_fair_implies_balanced_on_random_clusterings():
    for seed in range(60):
        p, q = [(1, 1), (2, 1), (3, 2)][seed % 3]
        n = (p + q) * 3
        inst, clu = gen_random(n, p, q, 1 + seed % n, seed=seed)
        if is_fair(inst, clu):
            assert is_balanced(inst, clu)
        for st in all_stats(inst, clu):
            if st.is_fair:
                assert st.is_balanced


def test_is_fair_is_balanced_examples():
    inst, clu = counts_instance([(4, 2), (2, 1)], p=2, q=1)
    assert is_fair(inst, clu) and is_balanced(inst, clu)

    # balanced but unfair: blue counts multiples of 3, ratio off
    inst, clu = counts_instance([(3, 2), (6, 1)], p=3, q=1)
    assert is_balanced(inst, clu)
    assert not is_fair(inst, clu)

    inst, clu = counts_instance([(3, 1)], p=2, q=1)
    assert not is_fair(inst, clu) and not is_balanced(inst, clu)


def test_color_swap_convention():
    # more reds than blues: roles flip and the ratio inverts
    inst = ColoredInstance.from_colors("RRRRBB", 1, 2)
    assert inst.swapped
    assert (inst.p, inst.q) == (2, 1)
    assert (inst.given_p, inst.given_q) == (1, 2)
    assert inst.blue_total == 4  # role-blue counts the majority color
    assert inst.role_is_blue(0) and not inst.role_is_blue(4)
    # original colors are preserved for display
    assert inst.colors[0] is Color.RED


def test_gcd_reduction_is_silent():
    inst = ColoredInstance.from_colors("BBBBRR", 4, 2)
    assert (inst.p, inst.q) == (2, 1)
    assert (inst.given_p, inst.given_q) == (4, 2)


def test_members_ascending():
    clu = normalize([1, 0, 1, 0, 2])
    assert clu.members == ((0, 2), (1, 3), (4,))


def test_clustering_is_value_like():
    a = Clustering((0, 0, 1), 2)
    b = Clustering((0, 0, 1), 2)
    assert a == b
    assert a == normalize([7, 7, 3]) and hash(a) == hash(b) == hash(normalize([7, 7, 3]))
    assert a != Clustering((0, 1, 1), 2)
    assert a != Clustering((0, 0, 1), 3)
    assert a != (0, 0, 1)
    assert len({a, b, Clustering((0, 1, 1), 2)}) == 2
    assert repr(a) == "Clustering(labels=(0, 0, 1), k=2)"


# -- array-native representation ---------------------------------------------


def test_clustering_views_follow_the_array():
    c = normalize([4, 2, 4, 9, 2])
    arr = c.labels_array()
    assert arr.dtype == np.int64 and arr.tolist() == [0, 1, 0, 2, 1]
    assert c.labels == (0, 1, 0, 2, 1)
    assert all(type(x) is int for x in c.labels)
    assert c.members == ((0, 2), (1, 4), (3,))
    assert (c.n, c.k) == (5, 3)
    assert c.labels_array() is arr  # no copy per call


def test_stored_arrays_are_read_only():
    c = normalize([0, 1, 1])
    with pytest.raises(ValueError):
        c.labels_array()[0] = 1
    source = np.array([0, 0, 1])
    built = Clustering(source, 2)
    source[0] = 1  # the clustering owns a copy
    assert built.labels == (0, 0, 1)
    for colors in ("BBR", "RRB"):  # unswapped and swapped roles
        inst = ColoredInstance.from_colors(colors, 2, 1)
        with pytest.raises(ValueError):
            inst.blue_mask[0] = False
        with pytest.raises(ValueError):
            inst.role_blue_mask[0] = False


def test_from_colors_builds_identical_instances_from_every_spelling():
    text = "BRBBRBBBRR"
    spellings = [
        text,
        text.lower(),
        list(text),
        tuple(Color.BLUE if c == "B" else Color.RED for c in text),
    ]
    built = [ColoredInstance.from_colors(s, 3, 2) for s in spellings]
    for inst in built:
        assert inst.blue_mask.tolist() == [c == "B" for c in text]
        assert (inst.swapped, inst.p, inst.q, inst.given_p, inst.given_q) == (False, 3, 2, 3, 2)
        assert inst == built[0] and hash(inst) == hash(built[0])
        assert inst.color_string() == text
        assert "".join(c.value for c in inst.colors) == text


def test_from_colors_rejects_bad_input_with_library_errors():
    for colors, p, q in [("BRX", 1, 1), (["B", "G"], 1, 1), ("BRé", 1, 1), ("BR", 0, 1),
                         ("BR", 1, -2), ("BR", True, 1), ("BR", 1.0, 1)]:
        with pytest.raises(InvalidArgument):
            ColoredInstance.from_colors(colors, p, q)
    assert issubclass(InvalidArgument, FairmergeError)


def _first_occurrence_reference(raw):
    seen = {}
    return [seen.setdefault(x, len(seen)) for x in raw]


def test_normalize_dense_path_and_sorting_fallback_agree():
    rnd = np.random.default_rng(17)
    for trial in range(60):
        n = int(rnd.integers(1, 40))
        raw = rnd.integers(0, 4 * n, n)  # inside the dense range
        dense, k_dense = _first_occurrence_dense(raw, int(raw.max()))
        fallback, k_sorted = _first_occurrence_sorted(raw)
        assert dense.tolist() == fallback.tolist() == _first_occurrence_reference(raw.tolist())
        assert k_dense == k_sorted == len(set(raw.tolist()))
    lo, hi = -(2**63), 2**63 - 1
    for raw in ([-5, 3, -5, 0], [10**6, 0, 10**6], [hi, lo, hi, 0, lo], [lo], [hi, hi]):
        c = normalize(raw)  # outside [0, 4n): sorted fallback
        assert list(c.labels) == _first_occurrence_reference(raw), raw
        assert c.k == len(set(raw))


def test_normalize_rejects_labels_outside_int64():
    for raw in ([0, 2**63], [-(2**63) - 1], [0, 2**64 - 1]):
        with pytest.raises(InvalidArgument):
            normalize(raw)


def test_is_fair_and_is_balanced_match_per_cluster_stats():
    for seed in range(40):
        p, q = [(1, 1), (2, 1), (3, 2), (5, 3)][seed % 4]
        inst, clu = gen_random((p + q) * 4, p, q, 1 + seed % 7, seed=seed)
        stats = all_stats(inst, clu)
        assert is_fair(inst, clu) == all(st.is_fair for st in stats)
        assert is_balanced(inst, clu) == all(st.is_balanced for st in stats)
    # a ratio part beyond n must not overflow the int64 comparison
    inst = ColoredInstance.from_colors("BBR", 2**70, 1)
    assert not is_fair(inst, normalize([0, 0, 0]))
    assert not is_balanced(inst, normalize([0, 1, 1]))


def test_all_stats_columns_and_items_match_cluster_stats():
    for seed in range(30):
        p, q = [(1, 1), (2, 1), (3, 2), (5, 3)][seed % 4]
        inst, clu = gen_random((p + q) * 5, p, q, 1 + seed % 9, seed=seed)
        stats = all_stats(inst, clu)
        expected = [cluster_stats(inst, clu, c) for c in range(clu.k)]
        assert len(stats) == clu.k and list(stats) == expected
        columns = zip(stats.red, stats.blue, stats.s_r, stats.s_b, stats.d_r, stats.d_b, stats.size)
        assert [tuple(map(int, row)) for row in columns] == [
            (st.red_count, st.blue_count, st.s_r, st.s_b, st.d_r, st.d_b, st.size) for st in expected
        ]
        assert stats[-1] == expected[-1] and stats[1:3] == expected[1:3]
        with pytest.raises(ValueError):
            stats.s_b[0] = 1
    # a ratio part beyond int64 keeps the deficits exact
    inst = ColoredInstance.from_colors("BBR", 2**70, 1)
    clu = normalize([0, 0, 1])
    stats = all_stats(inst, clu)
    assert stats.d_b[0] == 2**70 - 2
    assert list(stats) == [cluster_stats(inst, clu, c) for c in range(2)]
