"""Host-time attribution by wrapping each layer's public entry points.

Nothing inside ``src/`` is edited: :func:`install` replaces methods on
the classes that define them (and module-level functions in every
``repro`` module that bound them by name) with thin timing wrappers.
Class-level wrappers leave instances untouched, so checkpoint pickles
are the same bytes traced or untraced.

Every wrapped callable belongs to one *span name* (``"memory.load"``).
A span records its duration and its self time -- the duration minus the
part covered by directly nested spans.  A call that re-enters a span
name already open on the stack (a defense override calling
``super().load``) is not counted again.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Spans:
    """Totals per span name, plus outcome counters and simulated
    deltas gathered while the wrappers are installed."""

    def __init__(self) -> None:
        #: name -> [total seconds, self seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        #: name -> count (hits, proofs, ...)
        self.counts: Dict[str, float] = {}
        #: simulated-state deltas summed over every Simulator.run call
        self.sim: Dict[str, float] = {}
        self._open: set = set()
        self._children: List[float] = []
        self.top_level_s = 0.0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Time ``fn`` under span ``name``; ``observe(result)`` runs
        after the span closes, outside the timed interval."""
        spans_open = self._open
        children = self._children
        record = self.totals.setdefault(name, [0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            if name in spans_open:
                return fn(*args, **kwargs)
            spans_open.add(name)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                spans_open.discard(name)
                if children:
                    children[-1] += duration
                else:
                    self.top_level_s += duration
                record[0] += duration
                record[1] += duration - inner
                record[2] += 1
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def add_sim(self, name: str, amount: float) -> None:
        self.sim[name] = self.sim.get(name, 0) + amount

    def summary(self) -> Dict[str, object]:
        return {"totals": self.totals, "counts": self.counts,
                "sim": self.sim, "top_level_s": self.top_level_s}


def merge(summaries: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum the :meth:`Spans.summary` of several processes."""
    out = {"totals": {}, "counts": {}, "sim": {}, "top_level_s": 0.0}
    for part in summaries:
        for name, (total, own, calls) in part["totals"].items():
            rec = out["totals"].setdefault(name, [0.0, 0.0, 0])
            rec[0] += total
            rec[1] += own
            rec[2] += calls
        for key in ("counts", "sim"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["top_level_s"] += part["top_level_s"]
    return out


def _wrap_method(spans: Spans, cls: type, attr: str, name: str,
                 observe: Optional[Callable] = None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            spans.wrap(name, raw.__func__, observe)))
    else:
        setattr(cls, attr, spans.wrap(name, raw, observe))


def _wrap_in_hierarchy(spans: Spans, base: type, attrs, name: str,
                       observe: Optional[Callable] = None) -> None:
    """Wrap each of ``attrs`` on ``base`` and on every subclass that
    overrides it (defense hierarchies, plugins)."""
    seen = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in attrs:
            if attr in cls.__dict__:
                _wrap_method(spans, cls, attr, name, observe)


def _wrap_function(spans: Spans, fn: Callable, name: str,
                   observe: Optional[Callable] = None) -> Callable:
    """Replace ``fn`` in every loaded ``repro`` module that bound it."""
    wrapped = spans.wrap(name, fn, observe)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)
    return wrapped


# Simulated counters summed from Stats deltas (exact, not host time).
_STAT_GROUPS = {
    "l1d.hits": ("l1d.hits",),
    "l1d.misses": ("l1d.misses",),
    "l2.hits": ("l2.hits",),
    "l2.misses": ("l2.misses",),
    "mshr_retries": ("l1d.mshr_retry_full", "l1i.mshr_retry_full",
                     "l2.mshr.retry_full", "l2.mshr.quota_retry"),
    "minion_wipes": ("dminion.wipes", "iminion.wipes"),
    "timeleap_loads": ("gm.timeleap_loads",),
    "validations": ("ivs.validations",),
    "taint_blocked_cycles": ("stt.load_blocked_cycles",
                             "stt.store_blocked_cycles",
                             "stt.branch_blocked_cycles",
                             "stt.fu_blocked_cycles"),
}


def _sim_state(sim) -> Dict[str, float]:
    stats = sim.stats
    state = {"cycles": sim.cycle, "insts": sim.committed_insts(),
             "skipped": sim.skipped_cycles}
    for cls, cycles in sim.skipped_by_class.items():
        state["skip." + cls] = cycles
    for reason, cycles in sim.veto_counts.items():
        state["veto." + reason] = cycles
    for group, names in _STAT_GROUPS.items():
        state["stat." + group] = sum(stats.get(n) for n in names)
    return state


def install(spans: Spans) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Call after ``repro.cli`` (or whatever drives the run) is imported,
    so names bound by ``from ... import`` are found and replaced.
    """
    import repro.cli as cli
    from repro.analysis import figures
    from repro.analysis.report import format_table
    from repro.exp import engine, spec
    from repro.exp.cache import ResultCache
    from repro.memory.hierarchy import BaseHierarchy, SharedMemory
    from repro.pipeline.core import Core, StallVeto
    from repro.sim.runner import normalised_times
    from repro.sim.simulator import Simulator
    from repro.store.db import ResultStore, StoreCache
    from repro.workloads.spec import WorkloadSpec

    # registry / exp
    for fn in (spec.resolve_defense, spec.resolve_workload):
        _wrap_function(spans, fn, "registry.resolve")
    for fn in (engine.run_points, engine.run_sweep):
        _wrap_function(spans, fn, "exp.sweep")
    for attr in ("digest", "prefix_digest"):
        _wrap_method(spans, spec.SweepPoint, attr, "exp.digest")

    # store
    def lookup_outcome(result):
        if result is not None:
            spans.count("store.hits")

    def ckpt_outcome(result):
        if result is not None:
            spans.count("store.ckpt_hits")

    for cls in (ResultStore, StoreCache, ResultCache):
        _wrap_method(spans, cls, "lookup", "store.lookup",
                     lookup_outcome)
        _wrap_method(spans, cls, "store", "store.write")
    for attr in ("insert", "metrics_save"):
        _wrap_method(spans, ResultStore, attr, "store.write")
    _wrap_method(spans, StoreCache, "metrics_save", "store.write")
    _wrap_method(spans, ResultStore, "checkpoint_lookup",
                 "store.ckpt_lookup", ckpt_outcome)

    # workloads / sim
    _wrap_method(spans, WorkloadSpec, "build", "workloads.build")
    _wrap_method(spans, Simulator, "__init__", "sim.construct")
    _wrap_method(spans, Simulator, "restore", "sim.restore")
    timed_run = spans.wrap("sim.run", Simulator.__dict__["run"])

    def run(sim, *args, **kwargs):
        before = _sim_state(sim)
        result = timed_run(sim, *args, **kwargs)
        for key, value in _sim_state(sim).items():
            spans.add_sim(key, value - before.get(key, 0))
        return result

    Simulator.run = run

    # pipeline
    def proof_outcome(result):
        if type(result) is not StallVeto:
            spans.count("pipeline.proofs")

    # Core inherits step from HotCore (pure or compiled), so the wrapper
    # goes on Core itself.
    Core.step = spans.wrap("pipeline.step", Core.step)
    _wrap_method(spans, Core, "next_event_cycle", "pipeline.next_event",
                 proof_outcome)

    # memory (base hierarchy plus every defense override)
    for attrs, name in (
            (("ifetch_probe",), "memory.ifetch_probe"),
            (("load",), "memory.load"),
            (("ifetch",), "memory.ifetch"),
            (("drain",), "memory.drain"),
            (("commit_load", "store_commit", "commit_ifetch", "squash"),
             "memory.commit"),
            (("load_block_proof", "ifetch_block_proof"),
             "memory.block_proof")):
        _wrap_in_hierarchy(spans, BaseHierarchy, attrs, name)
    _wrap_method(spans, SharedMemory, "drain", "memory.drain")
    _wrap_method(spans, SharedMemory, "access", "memory.shared_access")

    # analysis: figure functions' self time plus table shaping
    _wrap_function(spans, normalised_times, "analysis.render")
    _wrap_function(spans, format_table, "analysis.render")
    for key, fn in list(cli.FIGURES.items()):
        wrapped = spans.wrap("analysis.render", fn)
        cli.FIGURES[key] = wrapped
        if getattr(figures, getattr(fn, "__name__", ""), None) is fn:
            setattr(figures, fn.__name__, wrapped)
