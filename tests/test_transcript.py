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
    points = [m.points for m in state.transcript.moves]
    assert points == [(2,), (2, 4), (9, 11), (11,), (4, 8, 10)]
    _assert_priced_like_replay(state)


def test_vectorized_costs_match_replay_on_random_move_sequences():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(4, 40))
        colors = "".join(rng.choice(["B", "R"], n))
        state = _state(colors, rng.integers(0, int(rng.integers(1, 6)), n).tolist())
        for _ in range(int(rng.integers(1, 25))):
            if rng.random() < 0.15:
                state.new_cluster()
            counts = state.counts()
            src = int(rng.choice(np.flatnonzero(counts.sum(axis=1))))
            red, blue = counts[src].tolist()
            color = "blue" if blue and rng.random() < 0.5 else "red"
            have = blue if color == "blue" else red
            if have == 0:
                color, have = "blue", blue
            dst = int(rng.choice([c for c in range(counts.shape[0]) if c != src] or [src]))
            if dst == src:
                continue
            state.move(src, dst, color, int(rng.integers(1, have + 1)), from_low=bool(rng.random() < 0.5))
        _assert_priced_like_replay(state)
        # the live counts are the per-role tally of the points' current keys,
        # and every pool stays ascending
        counts = state.counts()
        key = state.key_labels() * 2 + state.instance.role_blue_mask
        assert counts.ravel().tolist() == np.bincount(key, minlength=counts.size).tolist()
        assert all(list(pool) == sorted(pool) for pool in state.pools)


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
    ],
)
def test_bad_move_raises_a_library_error_and_changes_nothing(src, dst, color, count, error):
    state = _state("BR" * 4, [0] * 4 + [1] * 4)
    state.move(0, 1, "blue", 1)
    state.new_cluster()

    def snapshot():
        t = state.transcript
        return (
            [list(pool) for pool in state.pools],
            state.counts().tolist(),
            state.key_labels().tolist(),
            t.move_count,
            t.costs.tolist(),
            list(t.moves),
        )

    before = snapshot()
    with pytest.raises(error) as info:
        state.move(src, dst, color, count)
    assert isinstance(info.value, FairmergeError)
    assert snapshot() == before
