"""Closed-loop benchmark of fairmerge: one workload, one seed, one process.

    python3 bench/run.py --workload cf-coarse --seed 1 --seconds 12 --trace 0

Run from the repository root; the library is imported from ``src/`` next
to this directory.  The run sets up its inputs ``SETUP_REPS`` times
(``setup_s`` is the median), then makes one top-level call at a time until
the timed op wall time reaches ``--seconds`` and the current round of ops
is whole.  Every op is verified outside the timed window.  Op and set-up
times are scaled to an idle host by a reference kernel timed beside them.
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Per-op records (digests, counts, wall times) and, when traced, the spans
go to ``.bench_out/``.

With ``--trace 1`` every op runs twice on the same inputs, untraced and
traced, so the tracing overhead is measured op by op.  See README.md in
this directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
# What reference_s() takes on an idle 2-core Intel Xeon host; op and set-up
# times are scaled by REFERENCE_IDLE_S / reference_s() measured beside them.
REFERENCE_IDLE_S = 0.042


def use_local_library() -> None:
    """Import fairmerge from ``src/`` beside this directory, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "fairmerge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fairmerge sources at {src}")
    sys.path.insert(0, str(src))


def reference_s() -> float:
    """Wall time of a fixed mix of interpreter, allocation and numpy work.

    The host's speed drifts by tens of percent over tens of seconds when
    other tenants load it.  This kernel slows down with it, so an op time
    divided by the kernel time measured around it is far steadier than
    the op time alone.  The library's speed does not enter the kernel.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    boxes = {i: [i] for i in range(100_000)}
    np.random.default_rng(1).random(400_000).sort()
    del boxes
    return time.perf_counter() - t0


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    round_len: int
    setup_s: list[float] = field(default_factory=list)
    setup_ref_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_ref_s: list[float] = field(default_factory=list)
    untraced_op_s: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    missing_targets: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def digest(self, ops: int | None = None) -> str:
        h = hashlib.sha256()
        for r in self.records[:ops]:
            h.update(r["digest"].encode())
        return h.hexdigest()


def _execute(wl, i: int, rec=None) -> tuple[float, float, dict]:
    """Prepare op ``i``, time its call (traced when ``rec`` is given), check it.

    Returns the op's wall time, the reference kernel time around it, and
    the op's record.
    """
    record = {"op": i, "problems": [], "counts": {}, "digest": ""}
    inp = wl.prepare(i)
    gc.collect()
    ref = reference_s()
    try:
        with rec.recording(i, "bench.op") if rec else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = wl.run(inp)
            finally:
                elapsed = time.perf_counter() - t0
    except Exception as exc:  # a failed op is counted, and measuring goes on
        record["problems"].append(f"raised {type(exc).__name__}: {exc}")
        return elapsed, (ref + reference_s()) / 2, record
    ref = (ref + reference_s()) / 2
    try:
        checked = wl.check(i, inp, result)
    except Exception as exc:
        record["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        return elapsed, ref, record
    record.update(problems=checked.problems, counts=checked.counts, digest=checked.digest)
    return elapsed, ref, record


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS) -> Run:
    """Set up ``name`` ``setup_reps`` times, then run whole rounds of ops
    until their wall time reaches ``seconds``."""
    from tracing import SpanRecorder, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    run = Run(name, seed, trace, wl.round_len)
    rec = SpanRecorder() if trace else None
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    try:
        for rep in range(setup_reps):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()
            ref = reference_s()
            t0 = time.perf_counter()
            with rec.recording(-1 - rep, "bench.setup") if rec else contextlib.nullcontext():
                wl.setup(seed, workdir)
            run.setup_s.append(time.perf_counter() - t0)
            run.setup_ref_s.append((ref + reference_s()) / 2)

        while True:
            i = len(run.records)
            if rec is None:
                elapsed, ref, record = _execute(wl, i)
            else:
                # alternate which copy runs first, so order effects cancel out
                order = (False, True) if i % 2 == 0 else (True, False)
                both = {traced: _execute(wl, i, rec if traced else None) for traced in order}
                (untraced_s, _, record), (elapsed, ref, traced_record) = both[False], both[True]
                run.untraced_op_s.append(untraced_s)
                record["problems"] += traced_record["problems"]
                if traced_record["digest"] != record["digest"]:
                    record["problems"].append("the traced op gave different outputs")
            run.op_s.append(elapsed)
            run.op_ref_s.append(ref)
            run.records.append(record)
            if len(run.records) % wl.round_len == 0 and sum(run.op_s) + sum(run.untraced_op_s) >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if rec is not None:
        ops = list(range(len(run.records)))
        setup_ops = [-1 - rep for rep in range(setup_reps)]
        run.layers = layer_metrics(rec, ops, ops[: wl.round_len], run.op_s, run.untraced_op_s, setup_ops)
        run.missing_targets = sorted(rec.missing)
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(OUT_DIR / f"{name}-seed{seed}-spans.npz")
    return run


def _idle(times: list[float], refs: list[float]) -> list[float]:
    """Wall times scaled to the idle host by the reference kernel beside each."""
    return [t * REFERENCE_IDLE_S / r for t, r in zip(times, refs)]


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    attempted = len(run.records)
    verified = attempted - run.failed
    op_s = _idle(run.op_s, run.op_ref_s)
    return {
        "ops_per_s": (verified / sum(op_s), "1/s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "setup_s": (statistics.median(_idle(run.setup_s, run.setup_ref_s)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_verified_frac": (verified / attempted, "frac"),
    }


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    use_local_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = run.layers if run.trace else end_to_end_metrics(run)
    attempted, failed = len(run.records), run.failed
    summary = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "host": host_info(),
        "ops": attempted,
        "ops_failed_frac": failed / attempted,
        "op_samples": len(run.op_s),
        "wall_ops_per_s": len(run.op_s) / sum(run.op_s),
        "wall_op_p50_s": statistics.median(run.op_s),
        "wall_setup_s": statistics.median(run.setup_s),
        "reference_s": statistics.median(run.op_ref_s + run.setup_ref_s),
        "digest": run.digest(),
        "digest_first_round": run.digest(run.round_len),
        "missing_trace_targets": run.missing_targets,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    times = {
        "setup_s": run.setup_s,
        "setup_ref_s": run.setup_ref_s,
        "op_s": run.op_s,
        "op_ref_s": run.op_ref_s,
        "untraced_op_s": run.untraced_op_s,
    }
    out.write_text(json.dumps({**summary, **times, "records": run.records, "metrics": metrics}, indent=1) + "\n")
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for r in run.records:
        if r["problems"]:
            print(f"# op {r['op']} failed: {'; '.join(r['problems'])}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
