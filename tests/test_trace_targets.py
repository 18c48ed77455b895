"""Every entry point the benchmark's trace wraps still exists under its name.

``bench/tracing.py`` looks each target up with ``vars(owner).get(attr)``
and skips a missing one, so a renamed or removed function only shows up
as an absent layer in a traced run.  This checks the same lookup here.
"""

import importlib.util
from pathlib import Path

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
