"""Span recorder for the traced benchmark run.

The traced run wraps each layer's entry points under the names their
callers look them up by (``fairmerge.pipeline._balance_pq``,
``fairmerge.cli.load_clustering``, ``ClusterState.move``, ...), records one
span per call in memory -- name, start, end, parent span, op id -- and puts
every original back when the op ends.  Nothing under ``src/`` is modified,
and the untraced run installs no wrapper at all.

A span's self time is its duration minus the time its direct children
cover.  Spans nest strictly (one thread), so summing self time over all
spans of an op gives the op's traced wall time; the ``bench`` layer holds
the harness glue and the counter bookkeeping, kept apart so it is not
charged to a library layer.

Trivial accessors (``ClusterState.blue_count`` and friends, per-cluster
``ClusterStats`` construction) are not wrapped: a wrapper would cost more
than the call.  Their time lands in the self time of the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "generators",
    "model",
    "transcript",
    "exact",
    "balance_integral",
    "balance_fractional",
    "mergeloop",
    "fairify",
    "pipeline",
    "distance",
    "oracle",
    "fileio",
    "cli",
)

CASE_TAGS = ("cut-cut", "cut-merge", "merge-cut", "merge-merge")


# -- counters read from library outputs at a span boundary -------------------
# Each takes the call's (args, kwargs) before the call and returns a function
# of the call's result giving that span's counts.


def _closest_fair_counts(args, kwargs):
    def finish(result):
        out, _, transcript = result
        meta = transcript.meta
        counts = {
            "moves": len(transcript.moves),
            "points_moved": sum(len(m.points) for m in transcript.moves),
            "clusters_added": out.k - args[1].k,
            "blocks_cut": sum(v for k, v in meta.items() if k.endswith("_subsets_cut")),
        }
        if "case" in meta:
            counts["case " + meta["case"]] = 1
        return counts

    return finish


def _reds_moved(args, kwargs):
    moves = args[0].transcript.moves
    start = len(moves)
    return lambda _: {"reds_moved": sum(len(m.points) for m in moves[start:])}


def _extras_created(args, kwargs):
    return lambda created: {"extras_created": created}


def _bytes_read(args, kwargs):
    return lambda _: {"bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs):
    return lambda _: {"bytes_written": os.path.getsize(args[1])}


def _partitions(args, kwargs):
    return lambda result: {"partitions_enumerated": result.partitions_enumerated}


def _rows_passed(args, kwargs):
    return lambda mask: {"rows": int(args[0].shape[0]), "passed": int(np.count_nonzero(mask))}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from fairmerge import (
        balance_fractional,
        balance_integral,
        cli,
        exact,
        fileio,
        generators,
        model,
        oracle,
        pipeline,
        transcript,
    )

    balancers = (balance_integral, balance_fractional)
    state = transcript.ClusterState
    inst = model.ColoredInstance
    return [
        (generators, "gen_random", "generators.gen_random", None),
        (inst, "from_colors", "model.from_colors", None),
        (inst, "role_blue_mask", "model.role_mask", None),
        *[(m, "normalize", "model.normalize", None) for m in (model, transcript, fileio, oracle, generators)],
        (pipeline, "is_fair", "model.is_fair", None),
        *[(m, "all_stats", "model.all_stats", None) for m in (model, exact, *balancers)],
        (state, "__init__", "transcript.state_init", None),
        (state, "move", "transcript.move", None),
        (state, "to_clustering", "transcript.to_clustering", None),
        (pipeline, "_run_exact", "exact.run", None),
        (pipeline, "_balance_p", "balance_integral.balance", None),
        (pipeline, "_balance_pq", "balance_fractional.balance", None),
        (pipeline, "_make_clusters_fair", "fairify.fairify", _reds_moved),
        *[(m, "pack_extras", "mergeloop.pack_extras", _extras_created) for m in balancers],
        *[(m, "run_merge_subsets", "mergeloop.merge_subsets", None) for m in balancers],
        *[(m, "make_donor_blocks", "mergeloop.donor_blocks", None) for m in balancers],
        (pipeline, "closest_fair", "pipeline.closest_fair", _closest_fair_counts),
        (cli, "fair_consensus", "pipeline.fair_consensus", None),
        (pipeline, "dist_fast", "distance.dist_fast", None),
        (cli, "load_instance", "fileio.load", _bytes_read),
        (cli, "load_clustering", "fileio.load", _bytes_read),
        (cli, "save_clustering", "fileio.save", _bytes_written),
        (cli, "save_report", "fileio.save", _bytes_written),
        (cli, "main", "cli.main", None),
        (oracle, "oracle_closest_fair", "oracle.call", _partitions),
        (oracle, "oracle_closest_balanced", "oracle.call", _partitions),
        (oracle, "oracle_consensus", "oracle.call", _partitions),
        (oracle, "_label_chunks", "oracle.chunk", None),
        (oracle, "_fair_mask", "oracle.filter", _rows_passed),
        (oracle, "_balanced_mask", "oracle.filter", _rows_passed),
    ]


class SpanRecorder:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counts: dict[int, dict[str, int]] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.t0)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.t1.append(0)
        self._stack.append(sid)
        self.t0.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter_ns()
        self._stack.pop()

    def _count(self, sid: int, finish, result) -> None:
        csid = self._open("bench.count")
        self.counts[sid] = finish(result)
        self._close(csid)

    def wrap(self, name: str, fn, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = counter(args, kwargs) if counter else None
            sid = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(sid)
            if finish is not None:
                rec._count(sid, finish, result)
            return result

        return traced

    def wrap_chunks(self, name: str, gen_fn):
        """One span per yielded item, covering the consumer's work on it."""
        rec = self

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                sid = rec._open(name)
                try:
                    yield item
                finally:
                    rec._close(sid)

        return traced

    def _wrapped(self, raw, owner, attr, name, counter):
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(name, raw.__func__, counter))
        if isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self.wrap(name, raw.func, counter))
            prop.__set_name__(owner, attr)
            return prop
        if inspect.isgeneratorfunction(raw):
            return self.wrap_chunks(name, raw)
        return self.wrap(name, raw, counter)

    @contextmanager
    def installed(self):
        """Wrap every target; restore each original on exit.

        A target the library no longer has is skipped and listed in
        ``missing``, so a renamed entry point shows as an absent layer
        instead of failing the run.
        """
        undo = []
        try:
            for owner, attr, name, counter in _targets():
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                setattr(owner, attr, self._wrapped(raw, owner, attr, name, counter))
                undo.append((owner, attr, raw))
            yield
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    @contextmanager
    def recording(self, op: int, root: str):
        """Trace everything inside under one root span tagged with ``op``."""
        self._op = op
        with self.installed():
            sid = self._open(root)
            try:
                yield
            finally:
                self._close(sid)
        self._op = -1

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op=np.frombuffer(self.op, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            t0_ns=np.frombuffer(self.t0, dtype=np.int64),
            t1_ns=np.frombuffer(self.t1, dtype=np.int64),
        )


def layer_metrics(
    rec: SpanRecorder,
    ops: list[int],
    first_round: list[int],
    traced_s: list[float],
    untraced_s: list[float],
    setup_ops: list[int],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced ops.

    Times are seconds per op, averaged over every traced op.  Counts are
    per op over the first round only, whose inputs every run of a seed
    shares, so they repeat exactly.
    """
    op = np.frombuffer(rec.op, dtype=np.int64)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    name = np.frombuffer(rec.name, dtype=np.int64)
    dur = (np.frombuffer(rec.t1, dtype=np.int64) - np.frombuffer(rec.t0, dtype=np.int64)) / 1e9
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    self_s = dur - covered
    in_ops = np.isin(op, ops)
    in_first = np.isin(op, first_round)
    n_ops = len(ops)
    n_first = len(first_round)
    first = set(first_round)

    def nid(span: str) -> int:
        return rec._name_ids.get(span, -1)

    def prefixed(prefix: str) -> np.ndarray:
        return np.array([i for i, s in enumerate(rec.names) if s.startswith(prefix)], dtype=np.int64)

    def busy(span: str) -> float:
        return float(dur[in_ops & (name == nid(span))].sum()) / n_ops

    def own(span: str) -> float:
        return float(self_s[in_ops & (name == nid(span))].sum()) / n_ops

    def calls(span: str) -> float:
        return float(np.count_nonzero(in_first & (name == nid(span)))) / n_first

    def counted(key: str) -> float:
        return sum(c.get(key, 0) for sid, c in rec.counts.items() if op[sid] in first) / n_first

    def under(child: str, parent_span: str) -> float:
        mask = in_ops & (name == nid(child)) & has_parent
        return float(dur[mask][name[parent[mask]] == nid(parent_span)].sum()) / n_ops

    traced_total = sum(traced_s)
    untraced_total = sum(untraced_s)
    setup_mask = np.isin(op, setup_ops) & (name == nid("generators.gen_random"))
    call_s = busy("oracle.call")
    partitions = counted("partitions_enumerated")
    rows = counted("rows")

    m: dict[str, tuple[float, str]] = {
        "trace.ops": (float(len(ops)), "count"),
        "trace.op_s": (traced_total / n_ops, "s/op"),
        "trace.untraced_op_s": (untraced_total / n_ops, "s/op"),
        "trace.ops_per_s": (len(ops) / traced_total if traced_total else 0.0, "1/s"),
        "trace.untraced_ops_per_s": (len(ops) / untraced_total if untraced_total else 0.0, "1/s"),
        "trace.overhead_frac": (traced_total / untraced_total - 1.0 if untraced_total else 0.0, "frac"),
        "trace.unattributed_s": (float(self_s[in_ops & np.isin(name, prefixed("bench."))].sum()) / n_ops, "s/op"),
        "trace.spans": (float(np.count_nonzero(in_first)) / n_first, "count/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (float(self_s[in_ops & np.isin(name, prefixed(layer + "."))].sum()) / n_ops, "s/op")
    m.update(
        {
            "generators.gen_random_s": (float(dur[setup_mask].sum()) / max(len(setup_ops), 1), "s"),
            "model.from_colors_s": (busy("model.from_colors"), "s/op"),
            "model.role_mask_s": (busy("model.role_mask"), "s/op"),
            "model.normalize_s": (busy("model.normalize"), "s/op"),
            "model.normalize_calls": (calls("model.normalize"), "count/op"),
            "model.is_fair_s": (busy("model.is_fair"), "s/op"),
            "model.all_stats_s": (busy("model.all_stats"), "s/op"),
            "model.all_stats_calls": (calls("model.all_stats"), "count/op"),
            "transcript.state_init_s": (busy("transcript.state_init"), "s/op"),
            "transcript.move_s": (busy("transcript.move"), "s/op"),
            "transcript.moves": (counted("moves"), "count/op"),
            "transcript.points_moved": (counted("points_moved"), "count/op"),
            "transcript.to_clustering_s": (busy("transcript.to_clustering"), "s/op"),
            "transcript.to_clustering_calls": (calls("transcript.to_clustering"), "count/op"),
            "exact.run_s": (busy("exact.run"), "s/op"),
            "balance_integral.balance_s": (busy("balance_integral.balance"), "s/op"),
            "balance_fractional.balance_s": (busy("balance_fractional.balance"), "s/op"),
            **{
                "balance_fractional.case_" + tag.replace("-", "_"): (counted("case " + tag), "count/op")
                for tag in CASE_TAGS
            },
            "fairify.fairify_s": (busy("fairify.fairify"), "s/op"),
            "fairify.reds_moved": (counted("reds_moved"), "count/op"),
            "mergeloop.pack_extras_s": (busy("mergeloop.pack_extras"), "s/op"),
            "mergeloop.extras_created": (counted("extras_created"), "count/op"),
            "mergeloop.merge_subsets_s": (busy("mergeloop.merge_subsets"), "s/op"),
            "mergeloop.blocks_cut": (counted("blocks_cut"), "count/op"),
            "mergeloop.donor_blocks_s": (busy("mergeloop.donor_blocks"), "s/op"),
            "pipeline.closest_fair_s": (busy("pipeline.closest_fair"), "s/op"),
            "pipeline.closest_fair_self_s": (own("pipeline.closest_fair"), "s/op"),
            "pipeline.clusters_added": (counted("clusters_added"), "count/op"),
            "pipeline.consensus_s": (busy("pipeline.fair_consensus"), "s/op"),
            "pipeline.consensus_dmat_s": (under("distance.dist_fast", "pipeline.fair_consensus"), "s/op"),
            "distance.dist_fast_s": (busy("distance.dist_fast"), "s/op"),
            "distance.dist_fast_calls": (calls("distance.dist_fast"), "count/op"),
            "fileio.load_s": (busy("fileio.load"), "s/op"),
            "fileio.save_s": (busy("fileio.save"), "s/op"),
            "fileio.bytes_read": (counted("bytes_read"), "B/op"),
            "fileio.bytes_written": (counted("bytes_written"), "B/op"),
            "cli.main_s": (busy("cli.main"), "s/op"),
            "cli.main_self_s": (own("cli.main"), "s/op"),
            "oracle.call_s": (call_s, "s/op"),
            "oracle.chunks": (calls("oracle.chunk"), "count/op"),
            "oracle.chunk_s": (busy("oracle.chunk"), "s/op"),
            "oracle.filter_s": (busy("oracle.filter"), "s/op"),
            "oracle.partitions_enumerated": (partitions, "count/op"),
            "oracle.partitions_per_s": (partitions / call_s if call_s else 0.0, "1/s"),
            "oracle.filter_pass_frac": (counted("passed") / rows if rows else 0.0, "frac"),
        }
    )
    return m

