"""Self-test of the benchmark harness.

    python3 bench/selftest.py [workload ...]

Runs each workload (all four by default) twice for one round, traced, with
one set-up each, and asserts that:

- no op fails, and each traced op gives the same outputs as its untraced copy;
- per-op output digests and counts repeat exactly between the two runs;
- every per-layer count metric repeats exactly between the two runs;
- the traced run reports exactly the per-layer metrics BENCHMARK.json lists;
- layer self times plus the harness's own share add up to the traced op time.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import sys

import run as bench
from tracing import LAYERS

SEED = 3


def _count_metrics(layers: dict) -> dict:
    """The metrics read from counts, which must repeat exactly."""
    return {
        k: v
        for k, (v, unit) in layers.items()
        if unit in ("count", "count/op", "B/op") or k == "oracle.filter_pass_frac"
    }


def check(name: str, declared: list[str]) -> None:
    a, b = (bench.run_workload(name, SEED, 1e-3, trace=True, setup_reps=1) for _ in range(2))
    for r in (a, b):
        assert r.failed == 0, [rec["problems"] for rec in r.records if rec["problems"]]
        assert len(r.records) == r.round_len, len(r.records)
        assert not r.missing_targets, r.missing_targets
    for ra, rb in zip(a.records, b.records):
        assert ra["digest"] and ra["digest"] == rb["digest"], (name, ra["op"])
        assert ra["counts"] == rb["counts"], (name, ra["counts"], rb["counts"])
    assert _count_metrics(a.layers) == _count_metrics(b.layers), name
    assert list(a.layers) == declared, sorted(set(a.layers) ^ set(declared))

    m = {k: v for k, (v, _) in a.layers.items()}
    self_total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    assert abs(self_total - m["trace.op_s"]) <= 0.01 * m["trace.op_s"], (self_total, m["trace.op_s"])
    print(f"ok {name}: {len(a.records)} ops, digest {a.digest()[:16]}, overhead {m['trace.overhead_frac']:+.3f}")


def main(argv: list[str]) -> int:
    declared = [m["name"] for m in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    bench.use_local_library()
    from workloads import WORKLOADS

    for name in argv or WORKLOADS:
        check(name, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
