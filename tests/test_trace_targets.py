"""Every entry point the benchmark's trace wraps still exists and still fires.

``bench/tracing.py`` looks each target up with ``vars(owner).get(attr)``
and skips a missing one, so a renamed or removed function only shows up
as an absent layer in a traced run.  This checks the same lookup here,
and that a traced ``closest_fair`` records a span for every balancing
layer: a call routed around a wrapped name would zero that layer.
"""

import importlib.util
from pathlib import Path

import pytest

from fairmerge import pipeline

from support import counts_instance

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if vars(owner).get(attr) is None
    ]
    assert not missing, missing


@pytest.mark.parametrize(
    "counts, p, q, spans",
    [
        # three cut-side blue surpluses of 1 pack into one extra
        ([(4, 1), (4, 1), (4, 2)], 3, 1, {"balance_integral.balance", "mergeloop.pack_extras"}),
        # every cluster merge-side: the block loop serves the deficits
        (
            [(4, 1), (4, 1), (4, 1), (8, 1)],
            5,
            1,
            {"balance_integral.balance", "mergeloop.donor_blocks", "mergeloop.merge_subsets"},
        ),
        # red surpluses packed, blue deficits block-cut (cut-merge)
        (
            [(2, 1), (2, 1), (2, 2)],
            3,
            2,
            {
                "balance_fractional.balance",
                "mergeloop.pack_extras",
                "mergeloop.donor_blocks",
                "mergeloop.merge_subsets",
            },
        ),
    ],
    ids=["p1-pack", "p1-block-loop", "pq-cut-merge"],
)
def test_traced_closest_fair_records_every_balancing_layer(counts, p, q, spans):
    inst, clu = counts_instance(counts, p=p, q=q)
    rec = _load_tracing().SpanRecorder()
    with rec.recording(0, "test.op"):
        pipeline.closest_fair(inst, clu)
    assert not rec.missing
    names = [rec.names[i] for i in rec.name]
    assert spans <= set(names), sorted(spans - set(names))
    assert names.count("model.all_stats") == 1  # one stats pass for every color
