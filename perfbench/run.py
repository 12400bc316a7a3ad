"""The repository benchmark: end-to-end and per-layer host time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memory_bound --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics with no tracing installed; ``--trace 1``
additionally repeats one run with :mod:`spans` installed and reports
the per-layer metrics.  ``perfbench/README.md`` explains the workloads
and which layer metric should move which end-to-end metric.

Everything the benchmark writes goes under ``.bench_build/perfbench``
in the checkout.  The one thing kept between runs is the result store
of the full evaluation that ``eval_warm`` replays: it is built by the
first run in a checkout, keyed by the source fingerprint.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = HERE / "references.json"

clock = time.perf_counter

#: The seed the committed reference outputs belong to.
DEFAULT_SEED = 1
#: Timed repetitions per run, at least (more while --seconds lasts).
MIN_REPS = 3
#: Interpreter launches per run for ``setup_s``.
SETUP_LAUNCHES = 7
#: Kill a CLI child that runs longer than this (seconds).
CHILD_TIMEOUT = 150
#: Kernels that take a ``seed`` parameter.
SEEDED_KERNELS = ("pchase", "indirect", "random", "mixed")

#: Cold workloads: (named workloads, scale).  Each is swept over
#: Unsafe plus the fig. 6 defenses.
COLD = {
    "memory_bound": (("mcf", "gcc", "canneal"), 0.25),
    "pipeline_bound": (("hmmer", "libquantum"), 0.25),
}
EVAL_SCALE = 0.03
EVAL_ARTEFACTS = ("6", "7", "8", "9", "10", "11", "sec49", "sec65",
                  "dram")
#: Warm-start points of ``eval_warm``: (synthetic workload, defense).
#: Only the pointer-chase kernel: saving checkpoints of the ``mixed``,
#: ``indirect`` and ``random`` kernels raises RecursionError at this
#: warm-up for some seeds (README.md, "Known defect").
WARM_POINTS = tuple(("pointer_chase", defense) for defense in (
    "GhostMinion", "InvisiSpec-Future", "STT-Future", "MuonTrap"))
WARM_SCALE = 0.1
WARMUP_INSTS = 1400
WARM_HORIZON = 1600
WORKLOADS = ("memory_bound", "pipeline_bound", "eval_warm")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("kinst_per_s", "kinst/s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))

#: Per-layer metrics and units, as listed in BENCHMARK.json.  ``s``
#: and ``us`` are host time; ``cycles`` and ``kinst`` are simulated.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.command_s", "s"),
    ("registry.resolve_s", "s"), ("registry.resolve_calls", "count"),
    ("exp.sweep_s", "s"), ("exp.self_s", "s"), ("exp.digest_s", "s"),
    ("exp.digest_calls", "count"),
    ("store.lookup_s", "s"), ("store.lookup_calls", "count"),
    ("store.hit_ratio", "ratio"), ("store.write_s", "s"),
    ("store.write_calls", "count"), ("store.ckpt_lookup_s", "s"),
    ("store.ckpt_hit_ratio", "ratio"),
    ("workloads.build_s", "s"), ("workloads.build_calls", "count"),
    ("sim.construct_s", "s"), ("sim.run_s", "s"),
    ("sim.run_self_s", "s"), ("sim.restore_s", "s"),
    ("sim.restore_calls", "count"), ("sim.cycles", "cycles"),
    ("sim.kinst", "kinst"), ("sim.skipped_frac", "ratio"),
) + tuple(("sim.skip." + cls, "cycles") for cls in (
    "commit-stall", "dispatch-full", "fetch-stall", "idle",
    "lsq-store-addr", "mem-wait", "mshr-backpressure", "stt-taint",
    "strict-fu-order", "validation-wait")) + tuple(
    ("sim.veto." + reason, "cycles") for reason in (
        "commit-ready", "dispatch-ready", "early-commit-ready",
        "fetch-ready", "issue-ready", "mem-event-due",
        "validation-start", "writeback-due")) + (
    ("pipeline.step_s", "s"), ("pipeline.step_self_s", "s"),
    ("pipeline.step_calls", "count"), ("pipeline.step_us", "us"),
    ("pipeline.next_event_s", "s"),
    ("pipeline.next_event_calls", "count"),
    ("pipeline.proof_yield", "ratio"),
    ("pipeline.next_event_share", "ratio"),
    ("pipeline.step_self_share", "ratio"),
) + tuple(pair for layer in (
    "ifetch_probe", "load", "ifetch", "drain", "commit", "shared_access",
    "block_proof") for pair in (("memory.%s_s" % layer, "s"),
                                ("memory.%s_calls" % layer, "count"))) + (
    ("memory.l1d_miss_ratio", "ratio"), ("memory.l2_miss_ratio", "ratio"),
    ("memory.mshr_retries", "count"),
    ("defenses.minion_wipes", "count"),
    ("defenses.timeleap_loads", "count"),
    ("defenses.validations", "count"),
    ("defenses.taint_blocked_cycles", "cycles"),
    ("analysis.render_s", "s"),
    ("bench.trace_overhead", "ratio"), ("bench.unattributed_frac", "ratio"),
    ("bench.host_speed", "ratio"),
)

#: Laps of the calibration ring in one probe of the host's speed.
PROBE_LAPS = 64
#: Seconds one probe takes at the reference speed: the median probe on
#: the host the benchmark was tuned on (2-vCPU Intel Xeon VM, CPython
#: 3.11) while it was quiet.  Every reported time is scaled to it.
PROBE_REF_S = 0.0144

_ENGINE_LINE = re.compile(
    r"engine: (\d+) points, (\d+) cache hits, (\d+) simulated")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def kernel_seed(seed: int) -> int:
    """The value handed to seeded kernels (their immediates are
    64-bit, so the harness seed is folded into 16 bits)."""
    return seed % 65536


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

class _Node:
    __slots__ = ("key", "val", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.val = 0
        self.next: Optional["_Node"] = None


def _ring(size: int = 2048) -> Tuple[_Node, Dict[int, int]]:
    """A linked list in shuffled order plus a dict keyed by its nodes:
    the attribute, dict and pointer traffic the simulator is made of,
    in code that touches nothing of ``repro``."""
    nodes = [_Node(i) for i in range(size)]
    order = list(range(size))
    random.Random(7).shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    return nodes[order[0]], {i: 3 * i for i in range(size)}


_RING = _ring()


def probe() -> float:
    """Host seconds that a fixed pure-Python loop takes right now.  The
    first lap warms the caches and is not timed."""
    head, table = _RING
    acc = 0
    start = 0.0
    for lap in range(PROBE_LAPS + 1):
        if lap == 1:
            start = clock()
        node = head
        while node is not None:
            node.val += lap & 3
            acc ^= table.get(node.key, 0)
            node = node.next
    return clock() - start


class Timeline:
    """Consecutive timed segments, each scaled to the reference host
    speed by the probes taken just before and just after it.

    A shared host's speed drifts by tens of percent, for seconds to
    minutes at a time, and the process's CPU time drifts with it (the
    other tenants slow the core down rather than take it away).  The
    probe slows down by about the same factor, so a segment's host
    seconds times ``PROBE_REF_S`` over the probe's time around it is
    about what the segment would have taken at the reference speed."""

    def __init__(self, probe_fn: Callable[[], float] = probe) -> None:
        self.probe_fn = probe_fn
        self.raw: List[float] = []
        self.probes = [probe_fn()]
        self.start = clock()

    def mark(self, seconds: Optional[float] = None) -> None:
        """End the current segment (lasting ``seconds`` if given,
        otherwise since the last mark) and start the next."""
        end = clock()
        self.raw.append(end - self.start if seconds is None else seconds)
        self.probes.append(self.probe_fn())
        self.start = clock()

    def scaled(self) -> List[float]:
        return [seconds * 2.0 * PROBE_REF_S / (before + after)
                for seconds, before, after in zip(self.raw, self.probes,
                                                  self.probes[1:])]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def hermetic_env(tmp: Path) -> Dict[str, str]:
    """The environment of the harness and of every child: no inherited
    ``REPRO_*`` knob, caches and temporary files inside ``tmp``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["TMPDIR"] = str(tmp)
    return env


@dataclasses.dataclass
class Child:
    rc: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(args: List[str], env: Dict[str, str], cwd: Path,
              trace_out: Optional[Path] = None) -> Child:
    """Run one ``repro`` CLI command; its peak RSS comes from
    ``wait4``.  With ``trace_out`` the command runs under
    ``cli_child.py``, which installs the spans and writes their
    summary there."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro"] + args
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"),
               str(trace_out)] + args
    with tempfile.TemporaryFile(dir=cwd) as out, \
            tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=str(cwd))
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, usage.ru_maxrss / 1024.0,
                     out.read().decode(), err.read().decode())


def measure_setup(env: Dict[str, str], cwd: Path) -> float:
    """Median seconds, at the reference host speed, from launching the
    interpreter until ``repro`` is imported and its registries are
    loaded."""
    code = ("import repro.cli, time\n"
            "from repro.registry import load_plugins\n"
            "load_plugins()\n"
            "print(repr(time.time()))\n")
    timeline = Timeline()
    for _ in range(SETUP_LAUNCHES):
        start = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=str(cwd), capture_output=True,
                              text=True, timeout=60, check=True)
        timeline.mark(float(done.stdout.strip()) - start)
    return statistics.median(timeline.scaled())


# ----------------------------------------------------------------------
# reference outputs
# ----------------------------------------------------------------------

def regs_digest(cores) -> str:
    """The engine's architectural-register digest of a finished run."""
    blob = json.dumps([list(core.arch_regs()) for core in cores])
    return sha256(blob)


def point_key(spec, defense: str, scale: float,
              max_insts: Optional[int] = None) -> str:
    """Content key of a point's inputs, independent of the source tree
    (so references survive code changes that keep outputs)."""
    return sha256(json.dumps(
        {"workload": dataclasses.asdict(spec), "defense": defense,
         "scale": scale, "max_insts": max_insts},
        sort_keys=True, default=str))


def dense_reference(spec, defense: str, scale: float,
                    max_insts: Optional[int] = None) -> list:
    """``[cycles, insts, finished, regs_digest]`` of a point simulated
    with the dense per-cycle loop."""
    from repro.exp import SweepPoint
    from repro.exp.spec import resolve_defense
    from repro.sim.simulator import Simulator
    point = SweepPoint(workload=spec, defense=resolve_defense(defense),
                       scale=scale, max_insts=max_insts)
    sim = Simulator(spec.build(scale), point.defense, cfg=point.config())
    result = sim.run(max_cycles=point.max_cycles, max_insts=max_insts,
                     dense=True)
    return [result.cycles, result.insts, result.finished,
            regs_digest(result.cores)]


def load_references() -> Dict[str, Dict]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def references_for(wanted: List[Tuple[str, object, str, float,
                                       Optional[int]]],
                   committed: Dict[str, list]) -> Dict[str, list]:
    """Reference outputs for ``(key, spec, defense, scale, max_insts)``
    tuples: the committed ones where the inputs match the default
    seed's, the dense loop's otherwise."""
    refs = {}
    for key, spec, defense, scale, max_insts in wanted:
        refs[key] = committed.get(key) or dense_reference(
            spec, defense, scale, max_insts)
    return refs


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def seeded(spec, seed: int):
    """``spec`` with its kernel seed replaced (unseeded kernels are
    returned unchanged)."""
    if spec.kernel not in SEEDED_KERNELS:
        return spec
    return dataclasses.replace(
        spec, params=dict(spec.params, seed=kernel_seed(seed)))


@dataclasses.dataclass
class Rep:
    """One timed repetition of a workload.  ``outputs`` maps each
    checked key to what the program produced; ``failed`` holds the keys
    that failed whatever the references say (a raise, a cycle cap, a
    store or checkpoint miss)."""

    #: Seconds at the reference host speed, in all and per segment: a
    #: segment runs from one point (or command) completion to the next,
    #: and the last one is the tail after the final completion.
    wall: float = 0.0
    segments: List[float] = dataclasses.field(default_factory=list)
    #: Host seconds as measured, and the probes' median.
    raw_wall: float = 0.0
    probe_s: float = 0.0
    kinst: float = 0.0
    outputs: Dict[str, object] = dataclasses.field(default_factory=dict)
    failed: set = dataclasses.field(default_factory=set)
    rss_mb: float = 0.0
    cli_import: List[float] = dataclasses.field(default_factory=list)
    cli_command: List[float] = dataclasses.field(default_factory=list)
    spans: Optional[Dict] = None

    def take_times(self, timeline: Timeline) -> "Rep":
        self.segments = timeline.scaled()
        self.wall = sum(self.segments)
        self.raw_wall = sum(timeline.raw)
        self.probe_s = statistics.median(timeline.probes)
        return self


class ColdSweep:
    """A sweep from fresh, empty stores, run in this process."""

    def __init__(self, name: str, seed: int, tmp: Path) -> None:
        from repro.defenses import FIGURE_ORDER
        from repro.exp.spec import resolve_workload
        names, self.scale = COLD[name]
        self.name = name
        self.tmp = tmp
        self.specs = [seeded(resolve_workload(n), seed) for n in names]
        self.defenses = ["Unsafe"] + list(FIGURE_ORDER)
        self.points = [(point_key(spec, defense, self.scale), spec,
                        defense)
                       for spec in self.specs for defense in self.defenses]
        self.weights = {key: 1 for key, _spec, _d in self.points}
        self.reps = 0

    def prepare(self) -> None:
        pass

    def expected(self, committed: Dict[str, Dict]) -> Dict[str, object]:
        """``[cycles, insts, finished, regs_digest]`` per point."""
        wanted = [(key, spec, defense, self.scale, None)
                  for key, spec, defense in self.points]
        return references_for(wanted, committed["points"])

    def rep(self, probe_fn: Callable[[], float] = probe) -> Rep:
        from repro.exp import Sweep, run_sweep
        from repro.store import ResultStore
        self.reps += 1
        path = self.tmp / ("%s-%d.sqlite" % (self.name, self.reps))
        sweep = Sweep(name=self.name, workloads=self.specs,
                      defenses=self.defenses, scale=self.scale)
        report = None
        timeline = Timeline(probe_fn)
        store = ResultStore(str(path))
        try:
            report = run_sweep(sweep, jobs=1, cache=store,
                               progress=lambda *_: timeline.mark())
        except Exception as exc:  # a raise fails every point
            print("error: %s sweep raised: %r" % (self.name, exc),
                  file=sys.stderr)
        finally:
            store.close()
        timeline.mark()
        rep = Rep().take_times(timeline)
        path.unlink()
        if report is None:
            rep.failed = set(self.weights)
            return rep
        hit = report.meta()["cache_hits"] > 0
        for (key, _spec, _defense), point in zip(self.points,
                                                 report.results):
            rep.outputs[key] = [point.cycles, point.insts,
                                point.finished, point.regs_digest]
            rep.kinst += point.insts / 1000.0
            if hit or not point.finished:
                rep.failed.add(key)
        return rep


class EvalWarm:
    """CLI replay of every evaluation artefact from a filled result
    store, then warm-start points restored from checkpoints."""

    def __init__(self, seed: int, tmp: Path, env: Dict[str, str]) -> None:
        from repro.exp.spec import resolve_workload
        self.tmp = tmp
        self.env = env
        self.db = tmp / "eval.sqlite"
        self.warm = []
        for workload, defense in WARM_POINTS:
            text = "%s(seed=%d)" % (workload, kernel_seed(seed))
            spec = resolve_workload(text)
            self.warm.append((point_key(spec, defense, WARM_SCALE,
                                        WARM_HORIZON),
                              spec, text, defense))
        self.manifest: Dict[str, Dict] = {}
        self.weights: Dict[str, int] = {}
        self.trace_n = 0

    def commands(self) -> List[Tuple[str, str, List[str]]]:
        """``(kind, key, argv)`` for every command of one repetition."""
        cmds = [("figure", "table1", ["figure", "table1"])]
        for artefact in EVAL_ARTEFACTS:
            cmds.append(("report", artefact,
                         ["report", artefact, "--db", str(self.db),
                          "--scale", repr(EVAL_SCALE)]))
        for key, _spec, text, defense in self.warm:
            cmds.append(("run", key, self.run_argv(text, defense)))
        return cmds

    def run_argv(self, text: str, defense: str) -> List[str]:
        return ["run", "--workload", text, "--defense", defense,
                "--scale", repr(WARM_SCALE),
                "--warmup-insts", str(WARMUP_INSTS),
                "--max-insts", str(WARM_HORIZON),
                "--checkpoint-db", str(self.db), "--no-cache", "--json"]

    def prepare(self) -> None:
        """Untimed set-up: copy the evaluation store and save the
        warm-start checkpoints into the copy."""
        store, self.manifest = ensure_eval_store(self.env, self.tmp)
        shutil.copyfile(store, self.db)
        for _kind, key, _argv in self.commands():
            self.weights[key] = self.manifest.get(key, {}).get("points", 1)
        for _key, _spec, text, defense in self.warm:
            child = run_child(self.run_argv(text, defense), self.env,
                              self.tmp)
            if child.rc != 0:  # the timed runs will count it as failed
                print("warning: checkpoint set-up failed: %s"
                      % child.stderr[-2000:], file=sys.stderr)

    def expected(self, committed: Dict[str, Dict]) -> Dict[str, object]:
        """Stdout digest per artefact; ``[cycles, insts, finished]``
        per warm-start point."""
        wanted = [(key, spec, defense, WARM_SCALE, WARM_HORIZON)
                  for key, spec, _text, defense in self.warm]
        expected: Dict[str, object] = {
            key: ref[:3] for key, ref in
            references_for(wanted, committed["points"]).items()}
        figures = committed["figures"]
        expected["table1"] = figures["table1"]
        for artefact in EVAL_ARTEFACTS:
            expected[artefact] = figures["%s@%r" % (artefact, EVAL_SCALE)]
        return expected

    def rep(self, traced: bool = False) -> Rep:
        timeline = Timeline()
        rep = Rep()
        summaries = []
        for kind, key, argv in self.commands():
            trace_out = None
            if traced:
                self.trace_n += 1
                trace_out = self.tmp / ("trace-%d.json" % self.trace_n)
            child = run_child(argv, self.env, self.tmp, trace_out)
            rep.rss_mb = max(rep.rss_mb, child.rss_mb)
            if trace_out is not None:
                with open(trace_out, encoding="utf-8") as handle:
                    summary = json.load(handle)
                rep.cli_import.append(summary["cli"]["import_s"])
                rep.cli_command.append(summary["cli"]["command_s"])
                summaries.append(summary)
            self.check(kind, key, child, rep)
            timeline.mark()
        rep.take_times(timeline)
        if traced:
            from spans import merge
            rep.spans = merge(summaries)
        return rep

    def check(self, kind: str, key: str, child: Child, rep: Rep) -> None:
        """Record one command's output, and fail it on a nonzero exit,
        a result-store miss or a warm point that did not restore."""
        ok = child.rc == 0
        if kind == "run":
            try:
                payload = json.loads(child.stdout)
                result = payload["result"]
                rep.outputs[key] = [result["cycles"], result["insts"],
                                    result["finished"]]
                ok = ok and payload["timing"]["warm_insts"] > 0 \
                    and payload["cache_hits"] == 0
                rep.kinst += result["insts"] / 1000.0
            except (ValueError, KeyError, TypeError):
                ok = False
        else:
            rep.outputs[key] = sha256(child.stdout)
            if kind == "report":
                rep.kinst += self.manifest[key]["kinst"]
                match = _ENGINE_LINE.search(child.stderr)
                ok = ok and match is not None \
                    and int(match.group(1)) == int(match.group(2)) \
                    == self.weights[key]
        if not ok:
            rep.failed.add(key)


def ensure_eval_store(env: Dict[str, str], tmp: Path
                      ) -> Tuple[Path, Dict[str, Dict]]:
    """The filled result store of the whole evaluation at
    ``EVAL_SCALE``, built once per source tree through the CLI, plus a
    manifest of each artefact's point count and kilo-instructions."""
    from repro.exp import code_fingerprint
    tag = "eval-%s-%r" % (code_fingerprint()[:16], EVAL_SCALE)
    store = WORK / (tag + ".sqlite")
    manifest_path = WORK / (tag + ".json")
    if store.exists() and manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as handle:
            return store, json.load(handle)
    building = tmp / "build.sqlite"
    for artefact in EVAL_ARTEFACTS:
        child = run_child(["figure", artefact, "--db", str(building),
                           "--scale", repr(EVAL_SCALE), "--jobs", "1"],
                          env, tmp)
        if child.rc != 0:
            raise RuntimeError("building the evaluation store failed "
                               "at %s: %s" % (artefact,
                                              child.stderr[-2000:]))
    manifest = replay_manifest(building)
    os.replace(building, store)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True)
    return store, manifest


def replay_manifest(db: Path) -> Dict[str, Dict]:
    """Point count and summed kilo-instructions per artefact, read
    back from ``db`` through the figure functions."""
    from repro.cli import FIGURES
    from repro.store import ResultStore, StoreCache
    manifest = {}
    store = ResultStore(str(db))
    try:
        for artefact in EVAL_ARTEFACTS:
            seen = {"points": 0, "insts": 0}

            def progress(_done, _total, point, seen=seen):
                seen["points"] += 1
                seen["insts"] += point.insts

            FIGURES[artefact](EVAL_SCALE, jobs=1,
                              cache=StoreCache(store, mode="strict"),
                              progress=progress)
            manifest[artefact] = {"points": seen["points"],
                                  "kinst": seen["insts"] / 1000.0}
    finally:
        store.close()
    return manifest


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def typical_wall(reps: List[Rep]) -> float:
    """Seconds of one repetition at the reference host speed, as the sum
    over its segments (one per point or command) of each segment's
    median across repetitions, so that a spell the probes did not
    track, such as a burst of interrupts, moves no figure."""
    if len({len(rep.segments) for rep in reps}) != 1:
        return _median([rep.wall for rep in reps])
    return sum(statistics.median(column)
               for column in zip(*(rep.segments for rep in reps)))


def host_speed(reps: List[Rep]) -> float:
    """The host's speed over ``reps`` as a share of the reference."""
    return PROBE_REF_S / _median([rep.probe_s for rep in reps])


def layer_metrics(summary: Dict, traced: Rep, untraced_wall: float,
                  cli_import: float, cli_command: float) -> Dict:
    """Per-layer metrics (name -> value) from a merged spans summary.
    Host seconds are scaled to the reference speed by the traced run's
    probes; shares of ``wall`` are of host seconds as measured."""
    totals = summary["totals"]
    counts = summary["counts"]
    sim = summary["sim"]

    def total(name):
        return totals.get(name, [0.0, 0.0, 0])[0]

    def own(name):
        return totals.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return totals.get(name, [0.0, 0.0, 0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    wall = traced.raw_wall
    m = {"cli.import_s": cli_import, "cli.command_s": cli_command,
         "registry.resolve_s": total("registry.resolve"),
         "registry.resolve_calls": calls("registry.resolve"),
         "exp.sweep_s": total("exp.sweep") - total("bench.probe"),
         "exp.self_s": own("exp.sweep"),
         "exp.digest_s": total("exp.digest"),
         "exp.digest_calls": calls("exp.digest"),
         "store.lookup_s": total("store.lookup"),
         "store.lookup_calls": calls("store.lookup"),
         "store.hit_ratio": ratio(
             counts.get("store.hits", 0), calls("store.lookup")),
         "store.write_s": total("store.write"),
         "store.write_calls": calls("store.write"),
         "store.ckpt_lookup_s": total("store.ckpt_lookup"),
         "store.ckpt_hit_ratio": ratio(
             counts.get("store.ckpt_hits", 0),
             calls("store.ckpt_lookup")),
         "workloads.build_s": total("workloads.build"),
         "workloads.build_calls": calls("workloads.build"),
         "sim.construct_s": total("sim.construct"),
         "sim.run_s": total("sim.run"),
         "sim.run_self_s": own("sim.run"),
         "sim.restore_s": total("sim.restore"),
         "sim.restore_calls": calls("sim.restore"),
         "sim.cycles": sim.get("cycles", 0),
         "sim.kinst": sim.get("insts", 0) / 1000.0,
         "sim.skipped_frac": ratio(sim.get("skipped", 0),
                                   sim.get("cycles", 0))}
    for name, _unit in PER_LAYER:
        if name.startswith(("sim.skip.", "sim.veto.")):
            m[name] = sim.get(name[len("sim."):], 0)
    m.update({
        "pipeline.step_s": total("pipeline.step"),
        "pipeline.step_self_s": own("pipeline.step"),
        "pipeline.step_calls": calls("pipeline.step"),
        "pipeline.step_us": 1e6 * ratio(total("pipeline.step"),
                                        calls("pipeline.step")),
        "pipeline.next_event_s": total("pipeline.next_event"),
        "pipeline.next_event_calls": calls("pipeline.next_event"),
        "pipeline.proof_yield": ratio(counts.get("pipeline.proofs", 0),
                                      calls("pipeline.next_event")),
        "pipeline.next_event_share": ratio(total("pipeline.next_event"),
                                           wall),
        "pipeline.step_self_share": ratio(own("pipeline.step"), wall),
    })
    for layer in ("ifetch_probe", "load", "ifetch", "drain", "commit",
                  "shared_access", "block_proof"):
        m["memory.%s_s" % layer] = total("memory." + layer)
        m["memory.%s_calls" % layer] = calls("memory." + layer)
    m.update({
        "memory.l1d_miss_ratio": ratio(
            sim.get("stat.l1d.misses", 0),
            sim.get("stat.l1d.hits", 0) + sim.get("stat.l1d.misses", 0)),
        "memory.l2_miss_ratio": ratio(
            sim.get("stat.l2.misses", 0),
            sim.get("stat.l2.hits", 0) + sim.get("stat.l2.misses", 0)),
        "memory.mshr_retries": sim.get("stat.mshr_retries", 0),
        "defenses.minion_wipes": sim.get("stat.minion_wipes", 0),
        "defenses.timeleap_loads": sim.get("stat.timeleap_loads", 0),
        "defenses.validations": sim.get("stat.validations", 0),
        "defenses.taint_blocked_cycles":
            sim.get("stat.taint_blocked_cycles", 0),
        "analysis.render_s": own("analysis.render"),
        "bench.trace_overhead": ratio(traced.wall, untraced_wall) - 1.0,
        "bench.host_speed": PROBE_REF_S / traced.probe_s,
    })
    # A CLI child is covered from the import of repro.cli to the end of
    # its command; in-process runs by their outermost spans.
    if traced.cli_command:
        covered = sum(traced.cli_import) + sum(traced.cli_command)
    else:
        covered = summary["top_level_s"] - total("bench.probe")
    m["bench.unattributed_frac"] = max(0.0, ratio(wall - covered, wall))
    units = dict(PER_LAYER)
    for name in m:
        if units[name] in ("s", "us"):
            m[name] *= m["bench.host_speed"]
    return m


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args: argparse.Namespace, tmp: Path) -> Dict[str, object]:
    # The probes time the CPU that the harness runs on; children
    # inherit the affinity, so they run on that CPU too.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = hermetic_env(tmp)
    os.environ.clear()
    os.environ.update(env)
    tempfile.tempdir = str(tmp)
    # Bytecode is compiled before anything is timed.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    sys.path.insert(0, str(SRC))
    start = clock()
    import repro.cli  # noqa: F401  (timed: cli.import_s of this process)
    import_s = clock() - start

    setup_s = measure_setup(env, tmp) if not args.trace else 0.0
    if args.workload == "eval_warm":
        workload = EvalWarm(args.seed, tmp, env)
    else:
        workload = ColdSweep(args.workload, args.seed, tmp)
    workload.prepare()

    reps: List[Rep] = []
    began = clock()
    while len(reps) < MIN_REPS or clock() - began < args.seconds:
        reps.append(workload.rep())
    if args.workload == "eval_warm":
        peak_rss = _median([rep.rss_mb for rep in reps])
    else:
        peak_rss = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = typical_wall(reps)
    if args.workload != "eval_warm":
        # Whatever runs first in a checkout builds the store that
        # eval_warm replays, so that no eval_warm run pays for it.
        try:
            ensure_eval_store(env, tmp)
        except RuntimeError as exc:
            print("warning: %s" % exc, file=sys.stderr)
    print("%s: %d reps, wall_s %s; as measured %s; host speed %.3f" % (
        args.workload, len(reps),
        " ".join("%.3f" % rep.wall for rep in reps),
        " ".join("%.3f" % rep.raw_wall for rep in reps),
        host_speed(reps)), file=sys.stderr)

    # References (the dense loop, for seeds other than the default)
    # are computed after the timed repetitions.
    expected = workload.expected(load_references())
    if args.trace:
        if args.workload == "eval_warm":
            traced = workload.rep(traced=True)
        else:
            from spans import Spans, install
            spans = Spans()
            install(spans)
            # Probes run inside the sweep's span; as a span of their
            # own they are kept out of every layer's time.
            traced = workload.rep(spans.wrap("bench.probe", probe))
            traced.spans = spans.summary()
        # Parity: the traced run must reproduce the untraced outputs.
        if traced.outputs != reps[0].outputs:
            print("error: traced outputs differ from untraced ones",
                  file=sys.stderr)
            traced.failed |= set(workload.weights)
        reps.append(traced)
    attempted = failed = 0
    for rep in reps:
        rep.failed |= {key for key, value in expected.items()
                       if rep.outputs.get(key) != value}
        attempted += sum(workload.weights.values())
        failed += sum(workload.weights[key] for key in rep.failed)

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "kinst_per_s": _median([rep.kinst for rep in reps]) / wall,
            "peak_rss_mb": peak_rss,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    else:
        if args.workload == "eval_warm":
            cli_import = _median(traced.cli_import)
            cli_command = _median(traced.cli_command)
        else:
            cli_import, cli_command = import_s, 0.0
        metrics = layer_metrics(traced.spans, traced, wall, cli_import,
                                cli_command)
        units = dict(PER_LAYER)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())}}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no repro sources at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=str(WORK)))
    try:
        result = bench(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
