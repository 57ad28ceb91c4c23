"""Spans around the public functions of each ctreemix module, installed from outside.

The tracer replaces a fixed list of public functions and methods by timing
wrappers while it is installed, and restores the originals afterwards, so the
library itself carries no tracing code.  Spans are aggregated in memory by
(parent span, span): calls, inclusive time and self time, which is the
inclusive time minus the time of the spans opened inside it.

Only coarse boundaries are wrapped.  The per-sample functions
(``ArModel.observe``, ``Quantizer.__call__``) run about 440 000 times each in
a batch fit of 40 000 samples at depth 10, and even a minimal timer around
them made that fit 1.4-1.6 times slower; their work is instead derived as
counts from public state after each fit and step.
"""

from __future__ import annotations

import weakref
from collections import Counter, defaultdict
from time import perf_counter

import ctreemix
from ctreemix import ar, cli, fit, forecasting, io, selection, tree
from ctreemix.arch import ArchModel
from ctreemix.fit import FittedModel
from ctreemix.tree import ContextTrie

# Every module that may hold a binding of a wrapped function: cli and
# selection import fit_series by name, so each binding is replaced.
_MODULES = (ctreemix, ar, cli, fit, forecasting, io, selection, tree)


class Tracer:
    """Aggregated spans and counts for the passes run while it is installed."""

    def __init__(self):
        self.spans: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside outermost spans
        self._stack: list[list] = []  # open spans: [name, time of their child spans]
        self._patches: list[tuple] = []
        self._nodes_seen = weakref.WeakKeyDictionary()  # ContextTrie -> nodes already counted

    # -- span recording --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg = spans[(parent, name)]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.covered_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch_function(self, name, fn, after=None):
        wrapped = self._wrap(name, fn, after)
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, name, cls, attr, after=None):
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, after))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_function("fit.fit_series", fit.fit_series, self._after_fit)
        self._patch_method("fit.predict_next", FittedModel, "predict_next")
        self._patch_method("fit.update", FittedModel, "update", self._after_update)
        self._patch_method("tree.full_sweep", ContextTrie, "full_sweep", self._after_full_sweep)
        self._patch_method("tree.refresh_path", ContextTrie, "refresh_path", self._after_refresh)
        self._patch_method("tree.map_tree", ContextTrie, "map_tree")
        self._patch_method("tree.sample_tree", ContextTrie, "sample_tree")
        self._patch_method("tree.posterior_of", ContextTrie, "posterior_of")
        self._patch_function("ar.log_pe", ar.log_pe_ar)
        self._patch_function("ar.posterior", ar.posterior_ar)
        self._patch_method("arch.fit_state", ArchModel, "fit_state", self._after_fit_state)
        self._patch_function("selection.select", selection.select_hyperparams, self._after_select)
        self._patch_function("io.ingest_csv", io.ingest_csv)
        self._patch_function("cli.evidence_grid", cli.cmd_evidence_grid)
        self._patch_function("cli.sample_trees", cli.cmd_sample_trees)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- counts derived from public state --------------------------------------

    def _count_nodes(self, trie) -> None:
        seen = self._nodes_seen.get(trie, 0)
        self.counts["tree.nodes"] += trie.num_nodes - seen
        self._nodes_seen[trie] = trie.num_nodes

    def _after_fit(self, args, kwargs, fitted) -> None:
        self.counts["quantizer.symbols_coded"] += fitted.depth * fitted.num_scored
        self.counts["tree.node_updates"] += (fitted.depth + 1) * fitted.num_scored
        self._count_nodes(fitted.trie)

    def _after_update(self, args, kwargs, result) -> None:
        fitted = args[0]
        self.counts["quantizer.symbols_coded"] += fitted.depth
        self.counts["tree.node_updates"] += fitted.depth + 1
        self._count_nodes(fitted.trie)

    def _after_full_sweep(self, args, kwargs, result) -> None:
        self.counts["tree.combines"] += args[0].num_nodes

    def _after_refresh(self, args, kwargs, result) -> None:
        self.counts["tree.combines"] += args[0].depth + 1

    def _after_fit_state(self, args, kwargs, result) -> None:
        model, state = args[0], args[1]
        if state.count == 0:
            return
        iters = kwargs.get("iters", args[3] if len(args) > 3 else None)
        self.counts["arch.fit_attempts"] += 1
        self.counts["arch.rows_scored"] += state.count
        self.counts["arch.fisher_iters"] += model.cfg.fisher_iters if iters is None else iters
        self.counts["arch.nonconverged"] += bool(state.nonconverged)

    def _after_select(self, args, kwargs, result) -> None:
        self.counts["selection.cells"] += len(result.table)
        self.counts["selection.cells_failed"] += sum(c.error is not None for c in result.table)

    # -- reading ---------------------------------------------------------------

    def inclusive_s(self, name: str) -> float:
        return sum(agg[1] for (_, n), agg in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(agg[2] for (_, n), agg in self.spans.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(agg[0] for (_, n), agg in self.spans.items() if n == name)

    def table(self) -> str:
        """The aggregated spans, widest first: parent, span, calls, total and self time."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        lines = [f"{'parent':<20} {'span':<20} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for (parent, name), (calls, total, own) in rows:
            lines.append(f"{parent or '-':<20} {name:<20} {calls:>9} {total:>10.4f} {own:>10.4f}")
        return "\n".join(lines)
