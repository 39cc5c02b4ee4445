"""Per-layer instrumentation for the traced benchmark run.

Everything here is installed from outside the program: the benchmark wraps
public functions of each ``repro`` module in timed spans (kept in memory by
``repro.observability.trace.Tracer``, with parent links) and wraps the
fine-grained ``repro.extmem`` calls in counting-only wrappers, which cost a
counter increment instead of a span.  ``uninstall`` restores every
original, so untraced passes in the same interpreter run unmodified code.

A layer's self time is its spans' duration minus the part covered by their
child spans.  Importing this module does not import ``repro``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict

#: Registry result ids, one ``core.check_s.<id>`` metric each.
REGISTRY_IDS = (
    "corollary-10", "corollary-10-lasvegas", "corollary-7", "corollary-7-short",
    "corollary-9", "lemma-16", "lemma-21", "lemma-3", "lemma-32", "lemma-34",
    "lemmas-30-31", "lemmas-37-38", "proposition-5", "remark-20", "theorem-11",
    "theorem-12", "theorem-13", "theorem-13-protocol", "theorem-6",
    "theorem-8a", "theorem-8a-bitlevel", "theorem-8b",
)

#: Every per-layer metric: name -> (unit, which direction is better).
LAYER_METRICS = {
    "observability.events": ("count", "lower"),
    "observability.emit_s": ("s", "lower"),
    "observability.profile_s": ("s", "lower"),
    "extmem.tape_moves": ("count", "lower"),
    "extmem.tape_steps": ("count", "lower"),
    "extmem.tape_seeks": ("count", "lower"),
    "extmem.charges": ("count", "lower"),
    "extmem.internal_stores": ("count", "lower"),
    "extmem.scans": ("count", "lower"),
    "extmem.peak_internal_bits": ("bit", "lower"),
    "algorithms.fingerprint_s": ("s", "lower"),
    "numbertheory.prime_s": ("s", "lower"),
    "algorithms.sort_s": ("s", "lower"),
    "algorithms.onepass_s": ("s", "lower"),
    "queries.relational_s": ("s", "lower"),
    "queries.xml_s": ("s", "lower"),
    "audit.runner_s": ("s", "lower"),
    "parallel.dispatch_s": ("s", "lower"),
    "cache.lookups": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.lookup_s": ("s", "lower"),
    "cache.key_s": ("s", "lower"),
    "cache.writes": ("count", "lower"),
    "cache.store_s": ("s", "lower"),
    "ledger.records": ("count", "lower"),
    "ledger.write_s": ("s", "lower"),
    "audit.json_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.numpy_loaded": ("flag", "lower"),
    **{f"core.check_s.{rid}": ("s", "lower") for rid in REGISTRY_IDS},
    "machines.run_s": ("s", "lower"),
    "listmachine.run_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}

#: Span name -> the metric its self time adds to.
SELF_TIME_METRIC = {
    "algorithms.fingerprint": "algorithms.fingerprint_s",
    "numbertheory.prime": "numbertheory.prime_s",
    "algorithms.sort": "algorithms.sort_s",
    "algorithms.onepass": "algorithms.onepass_s",
    "queries.relational": "queries.relational_s",
    "queries.xml": "queries.xml_s",
    "audit.runner": "audit.runner_s",
    "observability.profile": "observability.profile_s",
    "cache.lookup": "cache.lookup_s",
    "cache.decode": "cache.lookup_s",
    "cache.key": "cache.key_s",
    "cache.store": "cache.store_s",
    "ledger": "ledger.write_s",
    "audit.json": "audit.json_s",
    "machines.run": "machines.run_s",
    "listmachine.run": "listmachine.run_s",
}

#: Counting-only wrappers: (module, class, method) -> count metric.
EXTMEM_COUNTERS = (
    ("repro.extmem.record_tape", "RecordTape", "move", "extmem.tape_moves"),
    ("repro.extmem.record_tape", "RecordTape", "step_read", "extmem.tape_steps"),
    ("repro.extmem.record_tape", "RecordTape", "step_write", "extmem.tape_steps"),
    ("repro.extmem.record_tape", "RecordTape", "seek_start", "extmem.tape_seeks"),
    ("repro.extmem.record_tape", "RecordTape", "seek_end", "extmem.tape_seeks"),
    ("repro.extmem.record_tape", "RecordTape", "rewind", "extmem.tape_seeks"),
    ("repro.extmem.tracker", "ResourceTracker", "charge_reversal", "extmem.charges"),
    ("repro.extmem.tracker", "ResourceTracker", "charge_internal", "extmem.charges"),
    ("repro.extmem.tracker", "ResourceTracker", "charge_step", "extmem.charges"),
    ("repro.extmem.tracker", "ResourceTracker", "charge_batch", "extmem.charges"),
    ("repro.extmem.memory", "InternalMemory", "store", "extmem.internal_stores"),
)

#: Timed spans of the audit path: (module, attribute path, span name).
AUDIT_SPANS = (
    ("repro.parallel", "run_batch", "parallel.run_batch"),
    ("repro.observability.audit", "run_audit_cells", "parallel.task"),
    ("repro.observability.audit", "run_audit_cell", "audit.cell"),
    ("repro.observability.audit", "audit_cell_key", "cache.key"),
    ("repro.observability.audit", "check_from_payload", "cache.decode"),
    ("repro.observability.audit", "write_audit_json", "audit.json"),
    ("repro.observability.profile", "RunProfile.from_events", "observability.profile"),
    ("repro.algorithms.fingerprint", "multiset_equality_fingerprint", "algorithms.fingerprint"),
    ("repro.algorithms.fingerprint", "random_prime_at_most", "numbertheory.prime"),
    ("repro.algorithms.fingerprint", "bertrand_prime", "numbertheory.prime"),
    ("repro.algorithms.mergesort_tape", "sort_instance_strings", "algorithms.sort"),
    ("repro.algorithms.checksort", "check_sort_deterministic", "algorithms.sort"),
    ("repro.algorithms.lasvegas", "LasVegasSorter.sort", "algorithms.sort"),
    ("repro.algorithms.onepass", "one_pass_multiset_test", "algorithms.onepass"),
    ("repro.queries.relational.streaming", "set_equality_database", "queries.relational"),
    ("repro.queries.relational.streaming", "StreamingEvaluator.evaluate", "queries.relational"),
    ("repro.queries.xml.streaming", "instance_to_token_tape", "queries.xml"),
    ("repro.queries.xml.streaming", "figure1_filter_streaming", "queries.xml"),
    ("repro.queries.xml.streaming", "theorem12_query_streaming", "queries.xml"),
    ("repro.cache.store", "ResultStore.lookup", "cache.lookup"),
    ("repro.cache.store", "ResultStore.store", "cache.store"),
) + tuple(
    ("repro.observability.ledger", f"LedgerWriter.{method}", "ledger")
    for method in (
        "__init__", "record", "sweep_start", "record_outcome", "task_outcome",
        "cache_event", "sweep_end", "close",
    )
)

#: Timed spans of the registry path (besides one span per registry check).
REGISTRY_SPANS = tuple(
    ("repro.machines", fn, "machines.run")
    for fn in (
        "run_deterministic", "run_with_choices", "acceptance_probability",
        "run_deterministic_batch", "run_with_choices_batch",
    )
) + tuple(
    ("repro.listmachine", fn, "listmachine.run")
    for fn in ("run", "run_deterministic", "run_with_choices", "acceptance_probability")
)


#: Metrics not derived from one pass's spans; the caller measures them.
NOT_PER_PASS = (
    "trace.overhead_frac", "observability.emit_s", "cache.writes",
    "cache.store_s", "setup.numpy_loaded",
)


def _resolve(module_name, path):
    import importlib

    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class LayerTrace:
    """In-memory spans plus extmem call counters for one traced interpreter."""

    def __init__(self):
        from repro.observability.trace import Tracer

        self.tracer = Tracer(capacity=1 << 20)
        self.counts = defaultdict(int)
        self._restore = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        opened = self.tracer.begin(name, "perfbench")
        try:
            yield opened
        finally:
            self.tracer.end(opened)

    def pass_span(self):
        return self.span("pass")

    def mark(self):
        return len(self.tracer), dict(self.counts)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr, make):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def timed(self, name):
        """A decorator factory: ``timed(name)(fn)`` spans each call of ``fn``."""
        begin, end = self.tracer.begin, self.tracer.end

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                opened = begin(name, "perfbench")
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(opened)

            return wrapper

        return make

    def _counted(self, metric):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install_audit(self):
        """Span the audit path and count extmem calls.  Contract runners are
        spanned by the caller, which passes ``run_contract_audit`` specs
        rebuilt around ``timed("audit.runner")``."""
        for module_name, path, name in AUDIT_SPANS:
            self._patch(*_resolve(module_name, path), self.timed(name))
        for module_name, cls, method, metric in EXTMEM_COUNTERS:
            self._patch(*_resolve(module_name, f"{cls}.{method}"), self._counted(metric))

    def install_registry(self):
        from repro.core import theorems

        for rid, (statement, fn) in list(theorems.REGISTRY.items()):
            wrapped = self.timed(f"core.check.{rid}")(fn)
            theorems.REGISTRY[rid] = (statement, wrapped)
            self._restore.append((theorems.REGISTRY, rid, (statement, fn)))
        for module_name, path, name in REGISTRY_SPANS:
            self._patch(*_resolve(module_name, path), self.timed(name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reading metrics -------------------------------------------------------

    def _spans_since(self, mark):
        if self.tracer.dropped:
            raise RuntimeError(f"tracer dropped {self.tracer.dropped} spans")
        return self.tracer.spans()[mark[0]:]

    def pass_metrics(self, mark):
        """Layer metrics of the spans and counts recorded since ``mark``,
        which must cover exactly one ``pass`` span."""
        spans = self._spans_since(mark)
        duration = {s.span_id: (s.end_us - s.start_us) / 1e6 for s in spans}
        covered = defaultdict(float)
        for s in spans:
            if s.parent_id is not None:
                covered[s.parent_id] += duration[s.span_id]
        out = {name: 0 for name in LAYER_METRICS if name not in NOT_PER_PASS}
        batch = tasks = 0.0
        for s in spans:
            own = duration[s.span_id] - covered[s.span_id]
            if s.name in SELF_TIME_METRIC:
                out[SELF_TIME_METRIC[s.name]] += own
            elif s.name.startswith("core.check."):
                out["core.check_s." + s.name[len("core.check."):]] += duration[s.span_id]
            elif s.name == "setup.import":
                out["setup.import_s"] += duration[s.span_id]
            elif s.name == "parallel.run_batch":
                batch += duration[s.span_id]
            elif s.name == "parallel.task":
                tasks += duration[s.span_id]
            elif s.name == "pass":
                out["trace.unattributed_frac"] = own / duration[s.span_id]
        out["parallel.dispatch_s"] = batch - tasks
        out["cache.lookups"] = sum(1 for s in spans if s.name == "cache.lookup")
        for metric in set(metric for *_, metric in EXTMEM_COUNTERS):
            out[metric] = self.counts[metric] - mark[1].get(metric, 0)
        return out

    def setup_metrics(self, mark):
        """Store writes and their time during a (traced) cache fill."""
        spans = self._spans_since(mark)
        store = [s for s in spans if s.name == "cache.store"]
        return {
            "cache.writes": len(store),
            "cache.store_s": sum((s.end_us - s.start_us) / 1e6 for s in store),
        }

    def write(self, path, stamp):
        """Write the retained spans as Chrome trace JSON (opens in Perfetto)."""
        if path:
            self.tracer.write_chrome_trace(path, process_name=stamp or "perfbench")
