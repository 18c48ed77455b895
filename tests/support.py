"""Shared helpers for the test suite."""

from __future__ import annotations

from itertools import combinations

from fairmerge import Color, ColoredInstance, dist_fast, normalize
from fairmerge.mergeloop import pair_off
from fairmerge.model import Clustering
from fairmerge.transcript import Transcript


def members(clustering: Clustering) -> tuple[tuple[int, ...], ...]:
    """Point ids per cluster, each ascending."""
    out: list[list[int]] = [[] for _ in range(clustering.k)]
    for u, c in enumerate(clustering.labels):
        out[c].append(u)
    return tuple(map(tuple, out))


def pair_off_walk(supply, demand) -> list[tuple[int, int, int]]:
    """Reference pairing walk: one step at a time, two cursors.

    Each step hands ``k = min(supply left at i, demand left at j)`` from
    supply ``i`` to demand ``j``; an exhausted amount moves its cursor on
    (both cursors on a tie).  ``mergeloop.pair_off`` is checked against it.
    """
    steps: list[tuple[int, int, int]] = []
    ns, nd = len(supply), len(demand)
    i = j = 0
    s = supply[0] if ns else 0
    d = demand[0] if nd else 0
    while i < ns and j < nd:
        k = min(s, d)
        steps.append((i, j, k))
        s -= k
        d -= k
        if s == 0:
            i += 1
            if i < ns:
                s = supply[i]
        if d == 0:
            j += 1
            if j < nd:
                d = demand[j]
    return steps


def pair_off_triples(supply, demand) -> list[tuple[int, int, int]]:
    """``mergeloop.pair_off``'s three columns as a list of (i, j, k) triples."""
    return list(zip(*(column.tolist() for column in pair_off(supply, demand))))


def replay_pairwise(transcript: Transcript, baseline: Clustering) -> tuple[Clustering, int]:
    """Reference replay: re-apply the moves and price every real point pair.

    Quadratic in cluster sizes, so only for small inputs; ``Transcript.replay``
    is checked against it.
    """
    clusters: dict[int, set[int]] = {c: set(pts) for c, pts in enumerate(members(baseline))}
    base = baseline.labels
    total = 0
    for mv in transcript.moves:
        src = clusters[mv.src]
        dst = clusters.setdefault(mv.dst, set())
        for u in mv.points:
            src.remove(u)
        d = 0
        for u in mv.points:
            bu = base[u]
            for v in src:
                d += 1 if base[v] == bu else -1
            for v in dst:
                d += -1 if base[v] == bu else 1
        dst.update(mv.points)
        total += d
        if not src:
            del clusters[mv.src]
    labels = [0] * baseline.n
    for key, pts in clusters.items():
        for u in pts:
            labels[u] = key
    return normalize(labels, baseline.n), total


def audit_transcript(
    before: Clustering, after: Clustering, transcript: Transcript
) -> int:
    """Check cost bookkeeping four ways; return the measured distance.

    The recorded total, the sequential replay total, the pairwise replay
    total and a direct distance computation must all agree, and both
    replays must rebuild the output.
    """
    d = dist_fast(before, after)
    assert transcript.total_cost == d, (transcript.total_cost, d)
    for replay in (transcript.replay, lambda b: replay_pairwise(transcript, b)):
        replayed, replay_cost = replay(before)
        assert replayed.labels == after.labels
        assert replay_cost == d, (replay_cost, d)
    return d


def assert_subset_identities(transcript: Transcript, p: int, q: int) -> None:
    """Every block-cutting loop must cut exactly (total deficit / modulus) blocks."""
    meta = transcript.meta
    for prefix, modulus in (("merge", p), ("blue_merge", p), ("red_merge", q)):
        w = meta.get(f"{prefix}_w")
        if w is not None:
            assert meta[f"{prefix}_subsets_cut"] * modulus == w, meta


def swap_colors(instance: ColoredInstance) -> ColoredInstance:
    """Flip every point's color and the declared ratio."""
    flipped = [Color.RED if c is Color.BLUE else Color.BLUE for c in instance.colors]
    return ColoredInstance.from_colors(flipped, instance.given_q, instance.given_p)


def mono_instance(red_sizes, blue_sizes, p: int = 1, q: int = 1):
    """Instance whose clusters are monochromatic blocks of the given sizes."""
    colors: list[str] = []
    labels: list[int] = []
    lab = 0
    for size in red_sizes:
        colors += ["R"] * size
        labels += [lab] * size
        lab += 1
    for size in blue_sizes:
        colors += ["B"] * size
        labels += [lab] * size
        lab += 1
    inst = ColoredInstance.from_colors(colors, p, q)
    return inst, normalize(labels, inst.n)


def counts_instance(cluster_counts, p: int, q: int):
    """Instance from (blue, red) point-count pairs, one cluster per pair."""
    colors: list[str] = []
    labels: list[int] = []
    for lab, (b, r) in enumerate(cluster_counts):
        colors += ["B"] * b + ["R"] * r
        labels += [lab] * (b + r)
    inst = ColoredInstance.from_colors(colors, p, q)
    return inst, normalize(labels, inst.n)


def has_three_partition(xs) -> bool:
    """Brute-force the 3-partition decision for small multisets."""
    xs = sorted(xs)
    if len(xs) % 3:
        return False
    triples = len(xs) // 3
    total = sum(xs)
    if total % triples:
        return False
    target = total // triples

    def rec(rest: tuple[int, ...]) -> bool:
        if not rest:
            return True
        first, tail = rest[0], rest[1:]
        seen = set()
        for i, j in combinations(range(len(tail)), 2):
            pair = (tail[i], tail[j])
            if pair in seen or first + tail[i] + tail[j] != target:
                continue
            seen.add(pair)
            nxt = tuple(x for t, x in enumerate(tail) if t not in (i, j))
            if rec(nxt):
                return True
        return False

    return rec(tuple(xs))
