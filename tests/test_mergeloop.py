"""The shared pairing walk and the transfer pass built on it."""

import numpy as np

from fairmerge.mergeloop import pair_off, transfer
from fairmerge.transcript import ClusterState

from support import counts_instance, pair_off_triples


def test_pair_off_examples():
    assert pair_off_triples([3, 1], [2, 2]) == [(0, 0, 2), (0, 1, 1), (1, 1, 1)]
    # a tie moves both cursors
    assert pair_off_triples([2, 2], [2, 1]) == [(0, 0, 2), (1, 1, 1)]
    # stops when either side runs out
    assert pair_off_triples([5], [1, 1]) == [(0, 0, 1), (0, 1, 1)]
    assert pair_off_triples([1], [4, 4]) == [(0, 0, 1)]
    assert pair_off_triples([], [3]) == pair_off_triples([3], []) == []
    assert all(a.dtype == np.int64 for a in pair_off([], [3]) + pair_off([2], [3]))


def _transfer(counts, p):
    inst, clu = counts_instance(counts, p=p, q=1)
    state = ClusterState(inst, clu)
    surplus = np.array([b % p for b, _ in counts])
    result = transfer(state, "blue", p, surplus)
    return result, [(m.src, m.dst, len(m.points)) for m in state.transcript.moves]


def test_transfer_runs_out_of_receivers():
    # p=5 blue surpluses [0, 1, 2, 4, 3, 1]: cut side 1, 2, 5; merge side 3, 4.
    # Receivers go by non-increasing cut cost minus merge cost: cluster 4
    # (3*5 - 2*8 = -1) before cluster 3 (4*0 - 1*4 = -4).
    (balanced, cut_rem, merge_rem), steps = _transfer(
        [(5, 0), (6, 0), (7, 0), (4, 0), (8, 0), (11, 0)], p=5
    )
    assert steps == [(1, 4, 1), (2, 4, 1), (2, 3, 1)]
    # surplus-free clusters, then the donors the pass emptied
    assert balanced == [0, 1, 2]
    assert (cut_rem, merge_rem) == ([5], [])


def test_transfer_runs_out_of_donors_and_keeps_a_partly_served_receiver():
    (balanced, cut_rem, merge_rem), steps = _transfer([(6, 0), (8, 0)], p=5)
    assert steps == [(0, 1, 1)]
    assert (balanced, cut_rem, merge_rem) == ([0], [], [1])
