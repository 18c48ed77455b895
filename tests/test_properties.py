"""Seeded property tests of closest_fair over small random instances, of
the two balancing entry points on integral ratios, and of the pairing
walk every stage shares.

Examples are derandomized and bounded, so every run checks the same
instances; each closest_fair property holds in every regime and for
either majority color.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fairmerge import (
    Clustering,
    ColoredInstance,
    balance_p,
    balance_pq,
    closest_fair,
    dist_fast,
    is_fair,
    normalize,
)
from fairmerge.mergeloop import pair_off

from support import swap_colors

RATIOS = ((1, 1), (2, 1), (3, 1), (3, 2), (5, 3), (1, 2), (2, 3))
SEEDED = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def instances(draw, ratios=RATIOS):
    """A feasible instance of up to 64 points and any clustering of it."""
    p, q = draw(st.sampled_from(ratios))
    units = draw(st.integers(1, 8))
    n = units * (p + q)
    order = draw(st.permutations(range(n)))
    colors = "".join("B" if i < units * p else "R" for i in order)
    k = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return ColoredInstance.from_colors(colors, p, q), normalize(labels)


def _same_run(a, b) -> bool:
    return a[0] == b[0] and a[1] == b[1] and a[2].moves == b[2].moves and a[2].meta == b[2].meta


@SEEDED
@given(instances())
def test_output_is_fair_priced_and_replayable(case):
    inst, clu = case
    out, report, transcript = closest_fair(inst, clu)
    assert is_fair(inst, out)
    d = dist_fast(clu, out)
    assert transcript.total_cost == report.achieved_distance == d
    assert transcript.replay(clu) == (out, d)
    if report.regime != "exact":
        mid = (balance_p if inst.q == 1 else balance_pq)(inst, clu)[0]
        assert report.stage_distances["balance"] == dist_fast(clu, mid)
        assert report.stage_distances["fairify"] == dist_fast(mid, out)


@SEEDED
@given(instances(), st.randoms(use_true_random=False))
def test_relabelling_input_clusters(case, rnd):
    inst, clu = case
    ids = list(range(clu.k))
    rnd.shuffle(ids)
    permuted = [ids[c] for c in clu.labels]
    # through normalize, cluster names cannot matter at all
    base = closest_fair(inst, clu)
    assert _same_run(base, closest_fair(inst, normalize([7 * c + 3 for c in permuted])))
    # as raw cluster ids they change tie-breaks, but not the guarantees
    raw = Clustering(permuted, clu.k)
    out, report, transcript = closest_fair(inst, raw)
    assert is_fair(inst, out)
    assert transcript.total_cost == report.achieved_distance == dist_fast(raw, out)
    if report.regime == "exact":  # optimal, so the distance cannot move
        assert report.achieved_distance == base[1].achieved_distance


@SEEDED
@given(instances())
def test_swapping_colors_and_ratio_gives_the_identical_output(case):
    inst, clu = case
    a, b = closest_fair(inst, clu), closest_fair(swap_colors(inst), clu)
    if inst.p != inst.q:
        assert _same_run(a, b)
    else:  # equal totals: the swap also swaps which color plays the majority role
        assert a[0] == b[0] and a[1] == b[1]


@SEEDED
@given(instances(ratios=((2, 1), (3, 1), (4, 1), (1, 2))))
def test_balance_p_and_balance_pq_agree_on_integral_ratios(case):
    inst, clu = case
    assert inst.q == 1
    out_p, transcript_p = balance_p(inst, clu)
    out_pq, transcript_pq = balance_pq(inst, clu)
    assert out_p == out_pq
    assert transcript_p.moves == transcript_pq.moves


AMOUNTS = st.lists(st.integers(1, 9), max_size=12)


@SEEDED
@given(AMOUNTS, AMOUNTS)
def test_pair_off_walks_in_order_and_conserves_amounts(supply, demand):
    steps = pair_off(supply, demand)
    # in order: each step moves at least one cursor forward, never back
    pairs = [(i, j) for i, j, _ in steps]
    assert pairs == sorted(set(pairs))
    assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(pairs, pairs[1:]))
    assert all(k > 0 for *_, k in steps)
    total = min(sum(supply), sum(demand))
    assert sum(k for *_, k in steps) == total
    # each amount is handed on whole, except the one the walk stopped inside
    for side, sizes in enumerate((supply, demand)):
        handed = [0] * len(sizes)
        for step in steps:
            handed[step[side]] += step[2]
        assert all(h <= a for h, a in zip(handed, sizes))
        short = [x for x, (h, a) in enumerate(zip(handed, sizes)) if h < a]
        if short:
            assert all(h == 0 for h in handed[short[0] + 1:])
