"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, derives the
inputs of op ``i`` in ``prepare``, performs one top-level call in ``run``
(the only timed part), and verifies its inputs and result in ``check``.  ``prepare``
and ``check`` run outside the timed window.  Ops come in rounds of
``round_len`` so every round covers each regime (or exponent, or oracle
mode) once; a run always ends on a whole round.

Entry points that the traced run wraps are called through their module
(``pipeline.closest_fair``, ``cli.main``, ...), so the wrapper is found.
Checks call the originals imported below, which tracing never replaces.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairmerge import cli, generators, model, oracle, pipeline
from fairmerge.distance import dist_fast, lmean
from fairmerge.fileio import load_clustering, save_clustering, save_instance
from fairmerge.model import is_balanced, is_fair
from fairmerge.oracle import BELL_NUMBERS
from fairmerge.pipeline import closest_fair

REGIMES = ((1, 1), (3, 1), (3, 2))


@dataclass
class Checked:
    """Verdict on one op: problems found, output digest, counts from outputs."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counts: dict = field(default_factory=dict)


def _sub_seed(seed: int, *tags: int) -> int:
    """A 64-bit seed for one input, fixed by the run seed and the tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0])


def _transcript_bytes(transcript) -> bytes:
    return repr([(m.points, m.src, m.dst, m.cost) for m in transcript.moves]).encode()


@dataclass(frozen=True)
class CfInput:
    colors: str
    p: int
    q: int
    labels: list


class ClosestFair:
    """``from_colors`` + ``normalize`` + ``closest_fair``, regimes 1:1, 3:1, 3:2."""

    round_len = len(REGIMES)
    replay_every = 8  # coprime to the round length, so every regime is replayed

    def __init__(self, name: str, n: int, k: int) -> None:
        self.name, self.n, self.k = name, n, k
        self.colors: list[str] = []

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        # One generated 1:1 coloring; each other regime flips a seeded uniform
        # sample of its reds to blue, which leaves a uniformly random coloring
        # at that ratio.  Three gen_random calls would triple the set-up time.
        inst, _ = generators.gen_random(self.n, 1, 1, self.k, _sub_seed(seed, 0))
        blue = np.frombuffer("".join(c.value for c in inst.colors).encode(), dtype="S1") == b"B"
        reds = np.flatnonzero(~blue)
        rng = np.random.default_rng(_sub_seed(seed, 1))
        self.colors = []
        for p, q in REGIMES:
            recolored = blue.copy()
            recolored[rng.choice(reds, self.n * p // (p + q) - self.n // 2, replace=False)] = True
            self.colors.append(np.where(recolored, b"B", b"R").tobytes().decode())
        # warm-up: one small op per regime runs every code path once
        for r, (p, q) in enumerate(REGIMES):
            inst, small = generators.gen_random(600, p, q, 12, _sub_seed(seed, 2, r))
            colors = "".join(c.value for c in inst.colors)
            self.run(CfInput(colors, p, q, list(small.labels)))

    def prepare(self, i: int) -> CfInput:
        r = i % len(REGIMES)
        p, q = REGIMES[r]
        rng = np.random.default_rng(_sub_seed(self.seed, 3, i))
        labels = rng.integers(0, self.k, self.n)
        labels[rng.permutation(self.n)[: self.k]] = np.arange(self.k)
        raw_ids = rng.permutation(10 * self.k)[: self.k]
        return CfInput(self.colors[r], p, q, raw_ids[labels].tolist())

    def run(self, inp: CfInput):
        inst = model.ColoredInstance.from_colors(inp.colors, inp.p, inp.q)
        clustering = model.normalize(inp.labels)
        out, report, transcript = pipeline.closest_fair(inst, clustering)
        return inst, clustering, out, report, transcript

    def check(self, i: int, inp: CfInput, result) -> Checked:
        inst, clustering, out, report, transcript = result
        c = Checked()
        if inst.n != self.n or out.n != self.n:
            c.problems.append("wrong point count")
        if not is_fair(inst, out):
            c.problems.append("output is not fair")
        d = dist_fast(clustering, out)
        if not report.achieved_distance == transcript.total_cost == d:
            c.problems.append(
                f"distance mismatch: report {report.achieved_distance}, "
                f"transcript {transcript.total_cost}, dist_fast {d}"
            )
        if i % self.replay_every == 0:
            replayed, cost = transcript.replay(clustering)
            if replayed != out or cost != d:
                c.problems.append("transcript replay disagrees with the output")
        h = hashlib.sha256(out.labels_array().tobytes())
        h.update(_transcript_bytes(transcript))
        h.update(repr((report.regime, report.achieved_distance, sorted(report.stage_distances.items()))).encode())
        c.digest = h.hexdigest()
        meta = transcript.meta
        c.counts = {
            "regime": f"{inp.p}:{inp.q}",
            "moves": len(transcript.moves),
            "points_moved": sum(len(m.points) for m in transcript.moves),
            "clusters_added": out.k - clustering.k,
            "subsets_cut": sum(v for key, v in meta.items() if key.endswith("_subsets_cut")),
            "case": meta.get("case", ""),
            "distance": d,
        }
        return c


class ConsensusCli:
    """``fairmerge consensus`` in process over seven files, ell cycling 1, 2, inf."""

    name = "consensus-cli"
    n = 100_000
    ratio = (3, 2)
    ks = (10, 100, 300, 1000, 3000, 10000)
    ells = ("1", "2", "inf")
    round_len = len(ells)

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        self.inst_path, self.input_paths, self.inputs, self.instance = self._write_inputs(
            workdir, self.n, self.ks, seed, 0
        )
        self.out_path = workdir / "out.json"
        self.report_path = workdir / "report.json"
        warm_inst, warm_inputs, _, _ = self._write_inputs(workdir / "warm", 500, (5, 50), seed, 1)
        argv = ["consensus", warm_inst, *warm_inputs, "--out", str(workdir / "warm" / "out.json")]
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up consensus failed")

    def _write_inputs(self, d: Path, n: int, ks, seed: int, tag: int):
        d.mkdir(parents=True, exist_ok=True)
        p, q = self.ratio
        inst_path = str(d / "instance.json")
        paths, clusterings = [], []
        instance = None
        for j, k in enumerate(ks):
            inst, clustering = generators.gen_random(n, p, q, k, _sub_seed(seed, tag, j))
            if instance is None:
                instance = inst
                save_instance(instance, inst_path)
            path = str(d / f"c{j}.json")
            save_clustering(clustering, path)
            paths.append(path)
            clusterings.append(clustering)
        return inst_path, paths, clusterings, instance

    def prepare(self, i: int) -> str:
        for path in (self.out_path, self.report_path):
            path.unlink(missing_ok=True)
        return self.ells[i % len(self.ells)]

    def run(self, ell: str):
        argv = [
            "consensus", self.inst_path, *self.input_paths, "--l", ell,
            "--out", str(self.out_path), "--report", str(self.report_path),
        ]
        return cli.main(argv)

    def check(self, i: int, ell_text: str, rc) -> Checked:
        c = Checked()
        if rc != 0:
            c.problems.append(f"exit code {rc}")
            return c
        out = load_clustering(self.out_path, self.n)
        report_bytes = self.report_path.read_bytes()
        report = json.loads(report_bytes)
        ell = math.inf if ell_text == "inf" else int(ell_text)
        dists = [dist_fast(d, out) for d in self.inputs]
        if not is_fair(self.instance, out):
            c.problems.append("consensus output is not fair")
        if report["per_input_distances"] != dists:
            c.problems.append("per_input_distances disagree with dist_fast")
        if report["objective"] != lmean(dists, ell).value:
            c.problems.append("objective disagrees with lmean")
        if not 0 <= report["chosen_index"] < len(self.inputs):
            c.problems.append("chosen_index out of range")
        out_bytes = self.out_path.read_bytes()
        c.digest = hashlib.sha256(out_bytes + b"\0" + report_bytes).hexdigest()
        c.counts = {
            "ell": ell_text,
            "chosen_index": report["chosen_index"],
            "distances": dists,
            "bytes_read": os.path.getsize(self.inst_path) + sum(os.path.getsize(p) for p in self.input_paths),
            "bytes_written": len(out_bytes) + len(report_bytes),
        }
        return c


@dataclass(frozen=True)
class OracleInput:
    mode: str
    ratio: tuple[int, int]
    instance: model.ColoredInstance
    clusterings: tuple
    ell: float


class OracleN12:
    """Exhaustive oracle calls at n = 12, modes fair, balanced, consensus.

    Balanced mode skips ratio 1:1: there every partition is balanced, so
    one call prices all 4.2e6 partitions and takes about three times as
    long as any other op.
    """

    name = "oracle-n12"
    n = 12
    ratios = ((1, 1), (2, 1), (3, 1))
    modes = ("fair", "balanced", "consensus")
    ells = (1, 2, math.inf)
    round_len = len(modes)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        getattr(oracle, "_matrix_cache", {}).clear()
        inst, clustering = generators.gen_random(self.n, 2, 1, 4, _sub_seed(seed, 0))
        oracle.oracle_closest_fair(inst, clustering)

    def prepare(self, i: int) -> OracleInput:
        r, mode = divmod(i, len(self.modes))
        if mode == 0:
            ratio, count = self.ratios[r % 3], 1
        elif mode == 1:
            ratio, count = self.ratios[1 + r % 2], 1
        else:
            ratio, count = self.ratios[(r + 2) % 3], 3
        rng = np.random.default_rng(_sub_seed(self.seed, 1, i))
        inst = None
        clusterings = []
        for j in range(count):
            k = int(rng.integers(2, 7))
            g_inst, clustering = generators.gen_random(self.n, *ratio, k, _sub_seed(self.seed, 2, i, j))
            if inst is None:
                inst = g_inst
            clusterings.append(clustering)
        return OracleInput(self.modes[mode], ratio, inst, tuple(clusterings), self.ells[r % 3])

    def run(self, inp: OracleInput):
        if inp.mode == "fair":
            return oracle.oracle_closest_fair(inp.instance, inp.clusterings[0])
        if inp.mode == "balanced":
            return oracle.oracle_closest_balanced(inp.instance, inp.clusterings[0])
        return oracle.oracle_consensus(inp.instance, list(inp.clusterings), inp.ell)

    def check(self, i: int, inp: OracleInput, result) -> Checked:
        c = Checked()
        inst, argmin = inp.instance, result.argmin
        passes = is_balanced if inp.mode == "balanced" else is_fair
        if not passes(inst, argmin):
            c.problems.append(f"argmin fails the {inp.mode} filter")
        if result.partitions_enumerated != BELL_NUMBERS[self.n]:
            c.problems.append(f"enumerated {result.partitions_enumerated} partitions")
        dists = [dist_fast(d, argmin) for d in inp.clusterings]
        value = lmean(dists, inp.ell).value if inp.mode == "consensus" else dists[0]
        if value != result.optimum:
            c.problems.append(f"argmin prices at {value}, optimum says {result.optimum}")
        if inp.mode == "fair":
            achieved = closest_fair(inst, inp.clusterings[0])[1].achieved_distance
            if result.optimum > achieved:
                c.problems.append(f"optimum {result.optimum} above closest_fair's {achieved}")
        h = hashlib.sha256(argmin.labels_array().tobytes())
        h.update(repr((inp.mode, inp.ratio, result.optimum, result.partitions_enumerated)).encode())
        c.digest = h.hexdigest()
        c.counts = {
            "mode": inp.mode,
            "ratio": f"{inp.ratio[0]}:{inp.ratio[1]}",
            "optimum": result.optimum,
            "partitions_enumerated": result.partitions_enumerated,
        }
        return c


WORKLOADS = {
    "cf-coarse": lambda: ClosestFair("cf-coarse", 1_000_000, 1_000),
    "cf-fragmented": lambda: ClosestFair("cf-fragmented", 200_000, 20_000),
    "consensus-cli": ConsensusCli,
    "oracle-n12": OracleN12,
}
