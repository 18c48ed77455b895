import numpy as np
import pytest

from fairmerge import (
    Clustering,
    Color,
    ColoredInstance,
    all_stats,
    balance_p,
    balance_pq,
    closest_fair,
    fair_consensus,
    find_closest_fair_11,
    gen_random,
    is_balanced,
    is_fair,
    make_clusters_fair,
    normalize,
    oracle_closest_balanced,
    oracle_closest_fair,
    oracle_consensus,
    validate_feasible,
)
from fairmerge.errors import (
    FairmergeError,
    InfeasibleFairness,
    InvalidArgument,
    LengthMismatch,
    SizeMismatch,
)
from fairmerge.model import _first_occurrence_dense, _first_occurrence_sorted

from support import counts_instance, members


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


def test_all_stats_examples():
    inst, clu = counts_instance([(7, 2)], p=3, q=1)
    st = all_stats(inst, clu)
    assert (st.blue[0], st.red[0], st.s_b[0], st.s_r[0]) == (7, 2, 1, 0)

    inst, clu = counts_instance([(7, 4)], p=5, q=3)
    st = all_stats(inst, clu)
    assert (st.s_b[0], st.s_r[0]) == (2, 1)

    inst, clu = counts_instance([(4, 2)], p=2, q=1)
    st = all_stats(inst, clu)
    assert st.s_b[0] == 0 and st.blue[0] * inst.q == st.red[0] * inst.p


def test_mod_identity():
    for red, blue, p, q in [(7, 11, 4, 3), (0, 9, 3, 1), (5, 5, 1, 1)]:
        inst, clu = counts_instance([(blue, red)], p, q)
        st = all_stats(inst, clu)
        s_b, s_r = int(st.s_b[0]), int(st.s_r[0])
        assert (st.blue[0], st.red[0]) == (blue, red)
        assert blue == p * (blue // p) + s_b
        assert red == q * (red // q) + s_r
        assert 0 <= s_b < p and 0 <= s_r < q


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
        st = all_stats(inst, clu)
        fair = st.blue * inst.q == st.red * inst.p
        balanced = (st.s_b == 0) & (st.s_r == 0)
        assert np.all(balanced[fair])


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
    assert inst.role_blue_mask[0] and not inst.role_blue_mask[4]
    # original colors are preserved for display
    assert inst.colors[0] is Color.RED


def test_gcd_reduction_is_silent():
    inst = ColoredInstance.from_colors("BBBBRR", 4, 2)
    assert (inst.p, inst.q) == (2, 1)
    assert (inst.given_p, inst.given_q) == (4, 2)


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


def test_is_fair_and_is_balanced_match_stats_columns():
    for seed in range(40):
        p, q = [(1, 1), (2, 1), (3, 2), (5, 3)][seed % 4]
        inst, clu = gen_random((p + q) * 4, p, q, 1 + seed % 7, seed=seed)
        st = all_stats(inst, clu)
        assert is_fair(inst, clu) == bool(np.all(st.blue * inst.q == st.red * inst.p))
        assert is_balanced(inst, clu) == bool(np.all((st.s_b == 0) & (st.s_r == 0)))
    # a ratio part beyond n must not overflow the int64 comparison
    inst = ColoredInstance.from_colors("BBR", 2**70, 1)
    assert not is_fair(inst, normalize([0, 0, 0]))
    assert not is_balanced(inst, normalize([0, 1, 1]))


def test_all_stats_columns_match_member_counts():
    for seed in range(30):
        p, q = [(1, 1), (2, 1), (3, 2), (5, 3)][seed % 4]
        inst, clu = gen_random((p + q) * 5, p, q, 1 + seed % 9, seed=seed)
        stats = all_stats(inst, clu)
        groups = members(clu)
        blue = [sum(1 for u in pts if inst.role_blue_mask[u]) for pts in groups]
        red = [len(pts) - b for pts, b in zip(groups, blue)]
        assert stats.blue.tolist() == blue and stats.red.tolist() == red
        assert stats.s_b.tolist() == [b % inst.p for b in blue]
        assert stats.s_r.tolist() == [r % inst.q for r in red]
        for col in (stats.red, stats.blue, stats.s_r, stats.s_b):
            with pytest.raises(ValueError):
                col[0] = 1
    # a ratio part beyond int64 keeps the surpluses exact
    inst = ColoredInstance.from_colors("BBR", 2**70, 1)
    stats = all_stats(inst, normalize([0, 0, 1]))
    assert stats.s_b.tolist() == [2, 0] and stats.s_r.tolist() == [0, 0]


_SIZE_CHECKED = {
    "closest_fair": closest_fair,
    "fair_consensus": lambda inst, clu: fair_consensus(inst, [clu], 1),
    "balance_p": balance_p,
    "balance_pq": balance_pq,
    "make_clusters_fair": make_clusters_fair,
    "find_closest_fair_11": find_closest_fair_11,
    "is_fair": is_fair,
    "is_balanced": is_balanced,
    "all_stats": all_stats,
    "oracle_closest_fair": oracle_closest_fair,
    "oracle_closest_balanced": oracle_closest_balanced,
    "oracle_consensus": lambda inst, clu: oracle_consensus(inst, [clu], 1),
}


@pytest.mark.parametrize("labels", [[0], [0, 0, 1]], ids=["short", "long"])
@pytest.mark.parametrize("entry", _SIZE_CHECKED, ids=list(_SIZE_CHECKED))
def test_clustering_over_other_point_count_raises_size_mismatch(entry, labels):
    inst = ColoredInstance.from_colors("BR", 1, 1)
    with pytest.raises(SizeMismatch):
        _SIZE_CHECKED[entry](inst, normalize(labels))
