"""Seeded property tests of closest_fair over small random instances, of
the two balancing entry points on integral ratios, of the pairing walk
every stage shares, and of the phase-batched ``ClusterState.move``.

Examples are derandomized and bounded, so every run checks the same
instances; each closest_fair property holds in every regime and for
either majority color.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

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
from fairmerge.errors import FairmergeError
from fairmerge.transcript import ClusterState

from support import pair_off_triples, pair_off_walk, swap_colors

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
    steps = pair_off_triples(supply, demand)
    # the vectorized pairing takes the reference walk's steps exactly
    assert steps == pair_off_walk(supply, demand)
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


COLORS = ("red", "blue")


def _apply(inst, clu, steps) -> ClusterState:
    """A state after ``steps``: cluster counts to create, or move arguments."""
    state = ClusterState(inst, clu)
    for step in steps:
        if isinstance(step, int):
            state.new_cluster(step)
        else:
            state.move(*step)
    return state


def _log_state(state: ClusterState):
    t = state.transcript
    log = t._log
    return (
        [list(column) for column in (log.src, log.dst, log.count, log.points)],
        state.key_labels().tolist(),
        state.counts().tolist(),
        t.costs.tolist(),
        list(t.moves),
    )


@st.composite
def batches(draw):
    """A state reached by single moves and new clusters, and one batch of
    moves on it in which no (cluster, color) both gives and receives.

    Returns (instance, clustering, the steps, the batch's moves, from_low).
    """
    n = draw(st.integers(2, 24))
    colors = "".join(draw(st.lists(st.sampled_from("BR"), min_size=n, max_size=n)))
    inst = ColoredInstance.from_colors(colors, 1, 1)
    clu = normalize(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    steps: list = []
    for _ in range(draw(st.integers(0, 6))):
        steps.append(draw(st.integers(0, 2)))
        counts = _apply(inst, clu, steps).counts()
        role = draw(st.integers(0, 1))
        givers = np.flatnonzero(counts[:, role]).tolist()
        if givers:
            src = draw(st.sampled_from(givers))
            dst = draw(st.sampled_from([c for c in range(counts.shape[0]) if c != src] or [None]))
            if dst is not None:
                count = draw(st.integers(1, int(counts[src, role])))
                steps.append((src, dst, COLORS[role], count, draw(st.booleans())))
    left = _apply(inst, clu, steps).counts()
    keys = left.shape[0]
    gives = [draw(st.lists(st.booleans(), min_size=keys, max_size=keys)) for _ in COLORS]
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        role = draw(st.integers(0, 1))
        givers = [c for c in range(keys) if gives[role][c] and left[c, role]]
        receivers = [c for c in range(keys) if not gives[role][c]]
        if givers and receivers:
            src = draw(st.sampled_from(givers))
            count = draw(st.integers(0, int(left[src, role])))  # a move of 0 points is dropped
            left[src, role] -= count
            batch.append((src, draw(st.sampled_from(receivers)), COLORS[role], count))
    return inst, clu, steps, batch, draw(st.booleans())


@SEEDED
@given(batches())
def test_a_batched_move_equals_its_moves_made_one_at_a_time(case):
    inst, clu, steps, batch, from_low = case
    one_call, stepwise = _apply(inst, clu, steps), _apply(inst, clu, steps)
    if batch:
        one_call.move(*map(list, zip(*batch)), from_low=from_low)
    for move in batch:
        stepwise.move(*move, from_low=from_low)
    assert _log_state(one_call) == _log_state(stepwise)


@SEEDED
@given(batches(), st.booleans(), st.data())
def test_a_batch_that_breaks_the_precondition_changes_nothing(case, overdraw, data):
    inst, clu, steps, batch, from_low = case
    made = [move for move in batch if move[3]]  # a move of 0 points is dropped unchecked
    assume(made)
    state = _apply(inst, clu, steps)
    left = state.counts()
    for src, _, color, count in batch:
        left[src, COLORS.index(color)] -= count
    src, dst, color, _ = data.draw(st.sampled_from(made))
    if overdraw:  # one point more than the source has left
        bad = (src, dst, color, int(left[src, COLORS.index(color)]) + 1)
    else:  # the receiver also gives this color, or the giver also receives it
        others = [c for c in range(left.shape[0]) if c not in (src, dst)]
        assume(others)
        other = data.draw(st.sampled_from(others))
        bad = (dst, other, color, 1) if data.draw(st.booleans()) else (other, src, color, 1)
    moves = batch[:]
    moves.insert(data.draw(st.integers(0, len(moves))), bad)
    before = _log_state(state)
    with pytest.raises(FairmergeError):
        state.move(*map(list, zip(*moves)), from_low=from_low)
    assert _log_state(state) == before
    # the state goes on exactly as one that never saw the bad batch
    untouched = _apply(inst, clu, steps)
    for s in (state, untouched):
        s.move(*map(list, zip(*batch)), from_low=from_low)
    assert _log_state(state) == _log_state(untouched)
