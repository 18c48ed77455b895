"""The move log: one-pass pricing, lazily built moves, replay and move errors."""

import weakref

import numpy as np
import pytest

from fairmerge import ColoredInstance, dist_fast, normalize
from fairmerge.errors import BadClusterId, FairmergeError, InvalidArgument, ReplayMismatch
from fairmerge.transcript import ClusterState, Move

from support import replay_pairwise


def _state(colors: str, labels, p: int = 1, q: int = 1) -> ClusterState:
    inst = ColoredInstance.from_colors(colors, p, q)
    return ClusterState(inst, normalize(labels, inst.n))


def _stepwise_costs(state: ClusterState) -> list[int]:
    """Each move's cost as the step in dist_fast to the baseline, move by move."""
    base = state.baseline
    labels = base.labels_array().copy()
    costs, prev = [], 0
    for mv in state.transcript.moves:
        labels[list(mv.points)] = mv.dst
        d = dist_fast(base, normalize(labels))
        costs.append(d - prev)
        prev = d
    return costs


def _assert_priced_like_replay(state: ClusterState) -> None:
    transcript = state.transcript
    costs = transcript.costs.tolist()
    assert [m.cost for m in transcript.moves] == costs
    assert costs == _stepwise_costs(state)
    replayed, total = transcript.replay(state.baseline)
    assert replayed == state.to_clustering()
    assert total == transcript.total_cost == sum(costs)
    # the sequential replay agrees with the pairwise reference
    assert replay_pairwise(transcript, state.baseline) == (replayed, total)


def test_vectorized_costs_match_replay_on_crafted_moves():
    # clusters {0..3}, {4..7}, {8..11}; even points blue
    state = _state("BR" * 6, [0] * 4 + [1] * 4 + [2] * 4)
    state.move(0, 1, "blue", 1)  # point 2 joins cluster 1
    # out of a cluster that received a point, taking the received one
    state.move(1, 2, "blue", 2, from_low=True)  # points 2 and 4: 2 moves twice
    fresh = state.new_cluster()
    state.move(2, fresh, "red", 2, from_low=True)  # points 9 and 11
    state.move(fresh, 0, "red", 1)  # point 11, moved twice, back to a baseline cluster
    state.move(2, fresh, "blue", 3)  # points 4, 8, 10 into the fresh cluster
    state.move([], [], [], [])  # an empty phase logs nothing
    state.move([0, 1], [1, 2], ["red", "blue"], [0, 0])  # nor do moves of 0 points
    points = [m.points for m in state.transcript.moves]
    assert points == [(2,), (2, 4), (9, 11), (11,), (4, 8, 10)]
    _assert_priced_like_replay(state)


def test_vectorized_costs_match_replay_on_random_move_sequences():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(4, 40))
        colors = "".join(rng.choice(["B", "R"], n))
        state = _state(colors, rng.integers(0, int(rng.integers(1, 6)), n).tolist())
        blue = state.instance.role_blue_mask
        for _ in range(int(rng.integers(1, 25))):
            if rng.random() < 0.15:
                state.new_cluster()
            counts = state.counts()
            src = int(rng.choice(np.flatnonzero(counts.sum(axis=1))))
            red, blue_count = counts[src].tolist()
            color = "blue" if blue_count and rng.random() < 0.5 else "red"
            have = blue_count if color == "blue" else red
            if have == 0:
                color, have = "blue", blue_count
            dst = int(rng.choice([c for c in range(counts.shape[0]) if c != src] or [src]))
            if dst == src:
                continue
            count, from_low = int(rng.integers(1, have + 1)), bool(rng.random() < 0.5)
            # the pool as it stands, ascending, from the live keys
            pool = np.flatnonzero((state.key_labels() == src) & (blue == (color == "blue")))
            state.move(src, dst, color, count, from_low=from_low)
            # the move took the pool's lowest or highest ids, ascending
            taken = pool[:count] if from_low else pool[-count:]
            assert state.transcript.moves[-1].points == tuple(taken.tolist())
        _assert_priced_like_replay(state)
        # the live counts are the per-role tally of the points' current keys
        counts = state.counts()
        key = state.key_labels() * 2 + blue
        assert counts.ravel().tolist() == np.bincount(key, minlength=counts.size).tolist()


def test_moves_read_mid_run_stay_one_list_and_complete():
    state = _state("BR" * 4, [0] * 4 + [1] * 4)
    state.move(0, 1, "blue", 1)
    moves = state.transcript.moves
    start = len(moves)
    assert start == 1
    state.move(1, 0, "red", 2)
    state.move(0, 1, "red", 1, from_low=True)
    # read through the list taken earlier, without going back to the transcript
    assert moves[start:] == [Move((5, 7), 1, 0, moves[1].cost), Move((1,), 0, 1, moves[2].cost)]
    assert state.transcript.moves is moves
    assert len(moves) == 3
    assert [m.cost for m in moves] == state.transcript.costs.tolist() == _stepwise_costs(state)


def test_transcript_does_not_keep_the_state_alive():
    state = _state("BR" * 4, [0] * 4 + [1] * 4)
    state.move(0, 1, "blue", 2)
    expected = state.to_clustering()
    transcript = state.transcript
    ref = weakref.ref(state)
    del state
    assert ref() is None
    assert transcript.moves == [Move((0, 2), 0, 1, transcript.total_cost)]
    assert transcript.replay(normalize([0] * 4 + [1] * 4))[0] == expected


def test_replay_on_a_baseline_that_lacks_a_moved_point_names_the_move():
    state = _state("BR" * 4, [0] * 4 + [1] * 4)
    state.move(0, 1, "blue", 1)  # point 2
    other = normalize([0, 0, 1, 1, 1, 1, 1, 1])  # point 2 is in cluster 1 here
    with pytest.raises(ReplayMismatch, match=r"move 0: point 2 is not in cluster 0"):
        state.transcript.replay(other)
    with pytest.raises(ReplayMismatch):
        state.transcript.replay(normalize([0, 0]))  # too few points
    assert issubclass(ReplayMismatch, FairmergeError)


@pytest.mark.parametrize(
    "src, dst, color, count, error",
    [
        (0, 0, "blue", 1, InvalidArgument),  # within one cluster
        (0, 1, "blue", 2, InvalidArgument),  # cluster 0 holds one blue now
        (0, 1, "red", -1, InvalidArgument),
        (0, 3, "red", 1, BadClusterId),
        (-1, 0, "red", 1, BadClusterId),
        (0, 1, "green", 1, InvalidArgument),
        (0, 1, "red", True, InvalidArgument),
        # batches: every move is checked before any is made
        ([0, 1], [1, 0], "blue", [1, 1], InvalidArgument),  # cluster 0 gives and receives blue
        ([1, 2], [2, 0], ["red", "red"], [1, 1], InvalidArgument),  # cluster 2 gives and receives red
        ([1, 1], [0, 2], "red", [1, 2], InvalidArgument),  # cluster 1 holds two reds
        ([1, 0], [2, 3], "red", [1, 1], BadClusterId),  # the second move names no cluster
        ([1, 0], [2, 2], ["blue", "red"], [1, -1], InvalidArgument),
        ([1, 0], [0, 2, 2], "red", 1, InvalidArgument),  # columns of unequal length
    ],
)
def test_bad_move_raises_a_library_error_and_changes_nothing(src, dst, color, count, error):
    def setup():
        state = _state("BR" * 4, [0] * 4 + [1] * 4)
        state.move(0, 1, "blue", 1)
        state.new_cluster()
        return state

    def snapshot(state):
        t = state.transcript
        log = t._log
        return (
            [list(column) for column in (log.src, log.dst, log.count, log.points)],
            state.counts().tolist(),
            state.key_labels().tolist(),
            t.move_count,
            t.costs.tolist(),
            list(t.moves),
        )

    state, untouched = setup(), setup()
    before = snapshot(state)
    with pytest.raises(error) as info:
        state.move(src, dst, color, count)
    assert isinstance(info.value, FairmergeError)
    assert snapshot(state) == before
    # later moves take the points they take on a state that saw no bad move
    for s in (state, untouched):
        s.move([1, 0], [2, 2], ["blue", "red"], [3, 2], from_low=True)
        s.move(2, 0, "blue", 2)
    assert snapshot(state) == snapshot(untouched)
