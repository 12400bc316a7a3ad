"""Regeneration of every table and figure in the paper's evaluation.

Each ``figure*``/``table*``/``section*`` function declares its sweep and
routes it through the experiment engine (:mod:`repro.exp`), then shapes
the results into a :class:`FigureResult` whose ``text`` matches the
paper's artefact (workloads x defenses normalised execution time, event
proportions, size sweeps, ...).  The benches in ``benchmarks/`` call
these and print the text (see docs/experiments.md).

Every function accepts ``jobs`` (worker processes), ``cache`` (on-disk
result cache: ``True``, a directory, or a ``ResultCache``) and
``progress`` (per-point callback) and forwards them to the engine; a
figure is a single engine invocation, so cached/parallel execution is
uniform across artefacts.  ``scale`` scales workload iteration counts
(1.0 = the suite defaults, already ~5 orders of magnitude below the real
SPEC runs; see :mod:`repro.workloads.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.power import power_report
from repro.analysis.report import format_table, geomean, normalised_series
from repro.config import default_config, table1_rows
from repro.defenses import FIGURE_ORDER
from repro.defenses.ghostminion import ghostminion, ghostminion_breakdown
from repro.exp import (
    ConfigVariant,
    Sweep,
    SweepReport,
    run_points,
    run_sweep,
)
from repro.sim.runner import normalised_times
from repro.workloads.spec import PARSEC, SPEC2006, SPEC2017


@dataclass
class FigureResult:
    """One regenerated artefact: machine-readable data plus its text."""

    name: str
    data: Dict = field(default_factory=dict)
    text: str = ""
    #: Engine bookkeeping (cache hits, executed points, jobs) — not part
    #: of the artefact itself.
    meta: Dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return "%s\n%s" % (self.name, self.text)


def _engine_meta(report: SweepReport) -> Dict:
    return report.meta()


def _suite_figure(name: str, workloads, scale: float,
                  defenses: Optional[Sequence[str]] = None,
                  jobs: Optional[int] = None, cache=None,
                  progress=None) -> FigureResult:
    defenses = list(defenses) if defenses else list(FIGURE_ORDER)
    report = run_sweep(
        Sweep(name=name, workloads=list(workloads),
              defenses=["Unsafe"] + defenses, scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    results = report.results.as_run_results()
    table = normalised_times(results)
    names = [d if isinstance(d, str) else d.name for d in defenses]
    rows = normalised_series(table, names)
    text = format_table(["workload"] + names, rows)
    geo = dict(zip(names, rows[-1][1:]))
    return FigureResult(name=name,
                        data={"normalised": table, "geomean": geo},
                        text=text, meta=_engine_meta(report))


def table1() -> FigureResult:
    """Table 1: the simulated system configuration."""
    rows = table1_rows()
    return FigureResult(name="Table 1: system setup",
                        data={"rows": rows},
                        text=format_table(["component", "configuration"],
                                          rows))


def figure6(scale: float = 1.0,
            workloads: Optional[Sequence[str]] = None,
            jobs: Optional[int] = None, cache=None,
            progress=None) -> FigureResult:
    """Fig. 6: SPEC CPU2006 normalised execution time, all defenses."""
    selected = (SPEC2006 if workloads is None
                else [s for s in SPEC2006 if s.name in set(workloads)])
    return _suite_figure("Figure 6: SPEC CPU2006", selected, scale,
                         jobs=jobs, cache=cache, progress=progress)


def figure7(scale: float = 1.0,
            jobs: Optional[int] = None, cache=None,
            progress=None) -> FigureResult:
    """Fig. 7: 4-thread Parsec normalised execution time."""
    return _suite_figure("Figure 7: Parsec (4 threads)", PARSEC, scale,
                         jobs=jobs, cache=cache, progress=progress)


def figure8(scale: float = 1.0,
            jobs: Optional[int] = None, cache=None,
            progress=None) -> FigureResult:
    """Fig. 8: SPECspeed 2017 normalised execution time."""
    return _suite_figure("Figure 8: SPECspeed 2017", SPEC2017, scale,
                         jobs=jobs, cache=cache, progress=progress)


BREAKDOWN_ORDER = ["DMinion-Timeless", "DMinion", "IMinion", "Coherence",
                   "Prefetcher", "All"]


def figure9(scale: float = 1.0,
            workloads: Optional[Sequence[str]] = None,
            jobs: Optional[int] = None, cache=None,
            progress=None) -> FigureResult:
    """Fig. 9: overhead breakdown of GhostMinion's parts."""
    selected = (SPEC2006 if workloads is None
                else [s for s in SPEC2006 if s.name in set(workloads)])
    defenses = [ghostminion_breakdown(which) for which in BREAKDOWN_ORDER]
    report = run_sweep(
        Sweep(name="figure9", workloads=list(selected),
              defenses=["Unsafe"] + defenses, scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    table = normalised_times(report.results.as_run_results())
    names = [d.name for d in defenses]
    rows = normalised_series(table, names)
    short = [n.replace("GhostMinion[", "").rstrip("]") for n in names]
    text = format_table(["workload"] + short, rows)
    return FigureResult(name="Figure 9: overhead breakdown",
                        data={"normalised": table},
                        text=text, meta=_engine_meta(report))


def figure10(scale: float = 1.0,
             workloads: Optional[Sequence[str]] = None,
             jobs: Optional[int] = None, cache=None,
             progress=None) -> FigureResult:
    """Fig. 10: proportion of loads hitting TimeGuards, timeleaps and
    leapfrogs under the full GhostMinion."""
    selected = (SPEC2006 if workloads is None
                else [s for s in SPEC2006 if s.name in set(workloads)])
    report = run_sweep(
        Sweep(name="figure10", workloads=list(selected),
              defenses=[ghostminion()], scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    rows = []
    data = {}
    for spec in selected:
        stats = report.results.get(
            "%s::GhostMinion::base" % spec.name).stats
        loads = max(1.0, stats.get("mem.loads_issued", 0.0))
        proportions = {
            "timeguards": stats.get("gm.timeguard_loads", 0.0) / loads,
            "timeleaps": stats.get("gm.timeleap_loads", 0.0) / loads,
            "leapfrogs": stats.get("gm.leapfrog_loads", 0.0) / loads,
        }
        data[spec.name] = proportions
        rows.append((spec.name, proportions["timeguards"],
                     proportions["timeleaps"], proportions["leapfrogs"]))
    text = format_table(
        ["workload", "timeguards", "timeleaps", "leapfrogs"], rows,
        float_fmt="%.4f")
    result = FigureResult(name="Figure 10: backwards-in-time prevention",
                          data=data, text=text)
    result.meta = _engine_meta(report)
    return result


SIZE_SWEEP = [4096, 2048, 1024, 512, 256, 128]


def _size_variants() -> List[ConfigVariant]:
    return [ConfigVariant.make("%dB" % size,
                               {"minion_d.size_bytes": size,
                                "minion_i.size_bytes": size})
            for size in SIZE_SWEEP]


def figure11(scale: float = 1.0,
             workloads: Optional[Sequence[str]] = None,
             jobs: Optional[int] = None, cache=None,
             progress=None) -> FigureResult:
    """Fig. 11: GhostMinion size sensitivity (plus async reload)."""
    selected = (SPEC2006 if workloads is None
                else [s for s in SPEC2006 if s.name in set(workloads)])
    gm_async = ghostminion(async_reload=True)
    gm_async.name = "GhostMinion-async"
    # One engine invocation covers the baseline, the size sweep and the
    # async-reload sweep (the paper's 'geo. async.' series).
    points = (
        Sweep(name="fig11-base", workloads=list(selected),
              defenses=["Unsafe"], scale=scale).points()
        + Sweep(name="fig11-size", workloads=list(selected),
                defenses=[ghostminion()], variants=_size_variants(),
                scale=scale).points()
        + Sweep(name="fig11-async", workloads=list(selected),
                defenses=[gm_async], variants=_size_variants(),
                scale=scale).points())
    report = run_points(points, jobs=jobs, cache=cache, progress=progress)
    results = report.results
    base = {spec.name: results.get("%s::Unsafe::base" % spec.name).cycles
            for spec in selected}
    per_size: Dict[str, Dict[str, float]] = {s.name: {} for s in selected}
    geo_rows: List[tuple] = []
    for size in SIZE_SWEEP:
        key = "%dB" % size
        ratios = []
        for spec in selected:
            gm = results.get("%s::GhostMinion::%s" % (spec.name, key))
            ratio = gm.cycles / base[spec.name]
            per_size[spec.name][key] = ratio
            ratios.append(ratio)
        geo_rows.append((key, geomean(ratios)))
    async_geo = []
    for size in SIZE_SWEEP:
        key = "%dB" % size
        ratios = []
        for spec in selected:
            gm = results.get(
                "%s::GhostMinion-async::%s" % (spec.name, key))
            ratios.append(gm.cycles / base[spec.name])
        async_geo.append(("%dB async" % size, geomean(ratios)))
    headers = ["size"] + [spec.name for spec in selected] + ["geomean"]
    rows = []
    for idx, size in enumerate(SIZE_SWEEP):
        key = "%dB" % size
        rows.append([key] + [per_size[s.name][key] for s in selected]
                    + [geo_rows[idx][1]])
    for key, value in async_geo:
        rows.append([key] + ["-"] * len(selected) + [value])
    text = format_table(headers, rows)
    return FigureResult(name="Figure 11: Minion size sensitivity",
                        data={"per_size": per_size,
                              "geomean": dict(geo_rows),
                              "async_geomean": dict(async_geo)},
                        text=text, meta=_engine_meta(report))


def section49_fu_order(scale: float = 1.0,
                       workloads: Optional[Sequence[str]] = None,
                       jobs: Optional[int] = None, cache=None,
                       progress=None) -> FigureResult:
    """§4.9: strictness-ordered non-pipelined FU issue vs baseline.

    The paper reports no non-negligible slowdown (max 0.08%) and a small
    geomean speedup.
    """
    names = workloads or ["calculix", "povray", "tonto", "namd",
                          "gamess", "mcf", "hmmer"]
    selected = [s for s in SPEC2006 if s.name in set(names)]
    strict = ghostminion(strict_fu_order=True)
    strict.name = "GhostMinion+strictFU"
    report = run_sweep(
        Sweep(name="sec49", workloads=list(selected),
              defenses=[ghostminion(), strict], scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    rows = []
    ratios = []
    for spec in selected:
        base = report.results.get("%s::GhostMinion::base" % spec.name)
        strict_run = report.results.get(
            "%s::GhostMinion+strictFU::base" % spec.name)
        ratio = strict_run.cycles / base.cycles
        ratios.append(ratio)
        rows.append((spec.name, base.cycles, strict_run.cycles, ratio))
    rows.append(("geomean", "-", "-", geomean(ratios)))
    text = format_table(
        ["workload", "GhostMinion", "+strict FU order", "ratio"], rows)
    return FigureResult(name="Section 4.9: strict FU issue order",
                        data={"ratios": dict(zip(
                            [s.name for s in selected], ratios))},
                        text=text, meta=_engine_meta(report))


def section65_power(scale: float = 1.0,
                    workloads: Optional[Sequence[str]] = None,
                    jobs: Optional[int] = None, cache=None,
                    progress=None) -> FigureResult:
    """§6.5: static power / read energy anchors plus measured dynamic
    power of the Minions."""
    names = workloads or ["mcf", "libquantum", "gamess", "hmmer"]
    selected = [s for s in SPEC2006 if s.name in set(names)]
    engine_report = run_sweep(
        Sweep(name="sec65", workloads=list(selected),
              defenses=[ghostminion()], scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    rows = []
    data = {}
    for spec in selected:
        point = engine_report.results.get(
            "%s::GhostMinion::base" % spec.name)
        report = power_report(point.as_run_result().stats,
                              default_config())
        data[spec.name] = report
        rows.append((spec.name,
                     report.minion_static_mw,
                     report.minion_read_pj,
                     report.dminion_dynamic_uw,
                     report.iminion_dynamic_uw))
    text = format_table(
        ["workload", "static mW", "read pJ", "DMinion uW", "IMinion uW"],
        rows)
    return FigureResult(name="Section 6.5: power analysis", data=data,
                        text=text, meta=_engine_meta(engine_report))


DRAM_VARIANTS = [
    ConfigVariant.make("open-page"),
    ConfigVariant.make("nonspec-open-only",
                       {"dram.nonspec_open_only": True}),
    ConfigVariant.make("closed-page", {"dram.open_page": False}),
]


def dram_policy_ablation(scale: float = 1.0,
                         workloads: Optional[Sequence[str]] = None,
                         jobs: Optional[int] = None, cache=None,
                         progress=None) -> FigureResult:
    """§4.9 DRAM: cost of only letting non-speculative accesses keep
    pages open (an extension experiment the paper proposes but does not
    evaluate)."""
    names = workloads or ["libquantum", "lbm", "milc", "mcf"]
    selected = [s for s in SPEC2006 if s.name in set(names)]
    report = run_sweep(
        Sweep(name="dram", workloads=list(selected),
              defenses=[ghostminion()], variants=DRAM_VARIANTS,
              scale=scale),
        jobs=jobs, cache=cache, progress=progress)
    rows = []
    for spec in selected:
        base = report.results.get(
            "%s::GhostMinion::open-page" % spec.name)
        nonspec = report.results.get(
            "%s::GhostMinion::nonspec-open-only" % spec.name)
        closed = report.results.get(
            "%s::GhostMinion::closed-page" % spec.name)
        rows.append((spec.name, 1.0, nonspec.cycles / base.cycles,
                     closed.cycles / base.cycles))
    text = format_table(
        ["workload", "open-page", "nonspec-open-only", "closed-page"],
        rows)
    return FigureResult(name="DRAM open-page policy ablation",
                        data={}, text=text, meta=_engine_meta(report))
