"""Benchmark tables: every workload in figs. 6, 7 and 8.

Each entry picks a kernel and parameters reflecting the benchmark's
dominant behaviour in the literature (memory-bound pointer chasing for
mcf, streaming for lbm/libquantum, indirect gathers for xalancbmk, FP
compute for gamess, ...).  Absolute footprints and iteration counts are
scaled down ~5 orders of magnitude from the real suites so a pure-Python
cycle simulator can run the full evaluation; what is preserved is
*which machine structure each workload stresses*.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.pipeline.program import Program
from repro.registry import Registry
from repro.workloads import patterns

KERNELS: Dict[str, Callable[..., Program]] = {
    "stream": patterns.stream_kernel,
    "pchase": patterns.pointer_chase_kernel,
    "indirect": patterns.indirect_kernel,
    "random": patterns.random_kernel,
    "compute": patterns.compute_kernel,
    "mixed": patterns.mixed_kernel,
}

#: kernels that accept a ``seed`` parameter (varied per thread).
_SEEDED = {"pchase", "indirect", "random", "mixed"}


@dataclass
class WorkloadSpec:
    """One named benchmark: kernel + parameters + thread count."""

    name: str
    suite: str
    kernel: str
    base_iters: int
    params: Dict[str, object] = field(default_factory=dict)
    threads: int = 1

    def build(self, scale: float = 1.0) -> List[Program]:
        """Instantiate the program(s), one per thread."""
        if self.kernel not in KERNELS:
            raise KeyError("unknown kernel %r" % self.kernel)
        iters = max(50, int(self.base_iters * scale))
        programs = []
        for thread in range(self.threads):
            params = dict(self.params)
            if self.threads > 1 and self.kernel in _SEEDED:
                params["seed"] = int(params.get("seed", 7)) + thread * 13
            programs.append(KERNELS[self.kernel](
                iters=iters, name="%s.t%d" % (self.name, thread),
                **params))
        return programs


def _spec(name: str, suite: str, kernel: str, iters: int,
          threads: int = 1, **params) -> WorkloadSpec:
    return WorkloadSpec(name=name, suite=suite, kernel=kernel,
                        base_iters=iters, params=params, threads=threads)


# ---------------------------------------------------------------------------
# SPEC CPU2006 (fig. 6) — 25 workloads
# ---------------------------------------------------------------------------

SPEC2006: List[WorkloadSpec] = [
    # pointer/graph-heavy integer codes
    _spec("astar", "spec2006", "indirect", 1100,
          footprint_lines=1024, index_lines=256, seed=5,
          branch_entropy=True),
    _spec("bzip2", "spec2006", "mixed", 320, stream_weight=2,
          indirect_weight=1, compute_weight=1, chase_weight=1,
          footprint_lines=2048, branch_entropy=True),
    _spec("gcc", "spec2006", "mixed", 300, stream_weight=1,
          indirect_weight=1, chase_weight=2, compute_weight=1,
          footprint_lines=8192, branch_entropy=True),
    _spec("gobmk", "spec2006", "mixed", 300, stream_weight=1,
          indirect_weight=1, chase_weight=1, compute_weight=2,
          footprint_lines=1024, branch_entropy=True),
    _spec("h264ref", "spec2006", "mixed", 340, stream_weight=2,
          indirect_weight=1, compute_weight=2, footprint_lines=512,
          branch_entropy=False),
    _spec("hmmer", "spec2006", "stream", 1600, footprint_lines=256,
          stride_lines=1),
    _spec("libquantum", "spec2006", "stream", 1600,
          footprint_lines=2048, stride_lines=2),
    _spec("mcf", "spec2006", "pchase", 1300, nodes=8192,
          work_per_node=1, branchy=True),
    _spec("omnetpp", "spec2006", "indirect", 1100,
          footprint_lines=1024, index_lines=512, seed=29,
          branch_entropy=True),
    _spec("perlbench-like-sjeng", "spec2006", "mixed", 300,
          stream_weight=1, indirect_weight=1, compute_weight=2,
          chase_weight=0, footprint_lines=1024, branch_entropy=True),
    _spec("xalancbmk", "spec2006", "indirect", 1100,
          footprint_lines=512, index_lines=512, branch_entropy=True),
    # FP / streaming codes
    _spec("bwaves", "spec2006", "stream", 1500, footprint_lines=4096,
          stride_lines=2),
    _spec("cactusADM", "spec2006", "stream", 1500,
          footprint_lines=2048, stride_lines=4),
    _spec("calculix", "spec2006", "compute", 800, div_every=4,
          fp=True, unroll=4),
    _spec("gamess", "spec2006", "compute", 800, div_every=0,
          fp=True, unroll=6),
    _spec("GemsFDTD", "spec2006", "stream", 1500,
          footprint_lines=8192, stride_lines=1),
    _spec("gromacs", "spec2006", "mixed", 320, stream_weight=2,
          indirect_weight=0, compute_weight=2, footprint_lines=1024,
          branch_entropy=False),
    _spec("lbm", "spec2006", "stream", 1500, footprint_lines=8192,
          stride_lines=1, store_every=1),
    _spec("leslie3d", "spec2006", "stream", 1400,
          footprint_lines=4096, stride_lines=8),
    _spec("milc", "spec2006", "random", 900, footprint_lines=4096),
    _spec("namd", "spec2006", "compute", 800, div_every=8, fp=True,
          unroll=5),
    _spec("povray", "spec2006", "compute", 750, div_every=3, fp=True,
          unroll=4),
    _spec("soplex", "spec2006", "mixed", 300, stream_weight=2,
          indirect_weight=2, chase_weight=1, compute_weight=1,
          footprint_lines=8192, branch_entropy=True),
    _spec("tonto", "spec2006", "compute", 780, div_every=5, fp=True,
          unroll=5),
    _spec("zeusmp", "spec2006", "mixed", 300, stream_weight=3,
          indirect_weight=0, chase_weight=1, compute_weight=1,
          footprint_lines=16384, branch_entropy=True),
]
# Keep the paper's fig. 6 naming: "sjeng" is the mixed entry above.
SPEC2006[9].name = "sjeng"


# ---------------------------------------------------------------------------
# SPECspeed 2017 (fig. 8) — 18 workloads
# ---------------------------------------------------------------------------

SPEC2017: List[WorkloadSpec] = [
    _spec("bwaves17", "spec2017", "stream", 1500,
          footprint_lines=16384, stride_lines=2),
    _spec("cactuBSSN", "spec2017", "stream", 1500,
          footprint_lines=8192, stride_lines=4),
    _spec("cam4", "spec2017", "mixed", 300, stream_weight=2,
          indirect_weight=1, compute_weight=2, footprint_lines=4096,
          branch_entropy=False),
    _spec("deepsjeng", "spec2017", "mixed", 300, stream_weight=1,
          indirect_weight=1, compute_weight=2, footprint_lines=1024,
          branch_entropy=True),
    _spec("exchange2", "spec2017", "compute", 800, div_every=0,
          fp=False, unroll=6),
    _spec("fotonik3d", "spec2017", "stream", 1500,
          footprint_lines=16384, stride_lines=1),
    _spec("gcc17", "spec2017", "mixed", 300, stream_weight=1,
          indirect_weight=1, chase_weight=2, compute_weight=1,
          footprint_lines=8192, branch_entropy=True),
    _spec("imagick", "spec2017", "compute", 800, div_every=6,
          fp=True, unroll=5),
    _spec("lbm17", "spec2017", "stream", 1500, footprint_lines=8192,
          stride_lines=1, store_every=1),
    _spec("leela", "spec2017", "mixed", 300, stream_weight=1,
          indirect_weight=1, compute_weight=2, chase_weight=1,
          footprint_lines=512, branch_entropy=True),
    _spec("mcf17", "spec2017", "pchase", 1300, nodes=8192,
          work_per_node=1, branchy=True),
    _spec("nab", "spec2017", "compute", 800, div_every=5, fp=True,
          unroll=5),
    _spec("perlbench", "spec2017", "mixed", 300, stream_weight=1,
          indirect_weight=2, compute_weight=1, footprint_lines=1024,
          branch_entropy=True),
    _spec("pop2", "spec2017", "stream", 1400, footprint_lines=8192,
          stride_lines=2),
    _spec("roms", "spec2017", "stream", 1400, footprint_lines=16384,
          stride_lines=1),
    _spec("wrf", "spec2017", "mixed", 300, stream_weight=2,
          indirect_weight=0, chase_weight=2, compute_weight=1,
          footprint_lines=16384, branch_entropy=True),
    _spec("xalancbmk17", "spec2017", "indirect", 1100,
          footprint_lines=512, index_lines=512, branch_entropy=True),
    _spec("xz", "spec2017", "mixed", 300, stream_weight=2,
          indirect_weight=1, compute_weight=1, footprint_lines=4096,
          branch_entropy=True),
]


# ---------------------------------------------------------------------------
# Parsec, 4 threads (fig. 7) — 7 workloads
# ---------------------------------------------------------------------------

PARSEC: List[WorkloadSpec] = [
    _spec("blackscholes", "parsec", "compute", 700, threads=4,
          div_every=4, fp=True, unroll=4),
    _spec("canneal", "parsec", "mixed", 260, threads=4,
          stream_weight=0, indirect_weight=1, chase_weight=1,
          compute_weight=1, store_weight=1, footprint_lines=8192,
          branch_entropy=True),
    _spec("ferret", "parsec", "mixed", 260, threads=4,
          stream_weight=1, indirect_weight=2, compute_weight=1,
          footprint_lines=4096, branch_entropy=False),
    _spec("fluidanimate", "parsec", "mixed", 260, threads=4,
          stream_weight=2, indirect_weight=1, compute_weight=1,
          store_weight=1, footprint_lines=8192, branch_entropy=False),
    _spec("freqmine", "parsec", "indirect", 900, threads=4,
          footprint_lines=4096, index_lines=512),
    _spec("streamcluster", "parsec", "stream", 1300, threads=4,
          footprint_lines=4096, stride_lines=1),
    _spec("swaptions", "parsec", "compute", 700, threads=4,
          div_every=6, fp=True, unroll=5),
]


# ---------------------------------------------------------------------------
# The ``workload`` component registry
# ---------------------------------------------------------------------------

def _finalize_workload(spec: WorkloadSpec, entry_name: str,
                       normalized: str, kwargs: Dict[str, object]
                       ) -> WorkloadSpec:
    """Name parameterized synthetic constructions after their
    normalized spec string, so two parameterizations never collide in
    sweep keys and result labels say exactly what ran."""
    if kwargs and spec.name == entry_name:
        spec.name = normalized
    return spec


#: Every named benchmark plus the parameterized synthetic kernels,
#: tagged by suite (``spec2006``/``spec2017``/``parsec``/``synthetic``).
WORKLOADS: Registry[WorkloadSpec] = Registry(
    "workload", finalize=_finalize_workload)


def _named_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """A fixed benchmark from the paper's suites (takes no
    parameters)."""
    if not isinstance(spec, WorkloadSpec):
        raise ValueError("named workloads take no parameters")
    return spec


for _spec_obj in SPEC2006 + SPEC2017 + PARSEC:
    WORKLOADS.add(
        _spec_obj.name,
        functools.partial(_named_workload, spec=_spec_obj),
        tags=(_spec_obj.suite,),
        summary="%s: %s kernel, %d base iters%s." % (
            _spec_obj.suite, _spec_obj.kernel, _spec_obj.base_iters,
            ", %d threads" % _spec_obj.threads
            if _spec_obj.threads > 1 else ""),
        metadata={"kernel": _spec_obj.kernel,
                  "threads": _spec_obj.threads,
                  "base_iters": _spec_obj.base_iters})
del _spec_obj


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by figure name (or construct a synthetic one
    from a spec string)."""
    return WORKLOADS.create(name)


# ---------------------------------------------------------------------------
# Parameterized synthetic kernels, constructible straight from spec
# strings: ``repro run --workload "pointer_chase(stride=128)"``.
# Byte-denominated conveniences (``stride``, ``footprint_kb``) translate
# onto the kernels' line-denominated parameters.
# ---------------------------------------------------------------------------

_SYNTH = ("synthetic",)


def _footprint_lines(footprint_kb: Optional[int],
                     default_lines: int) -> int:
    if footprint_kb is None:
        return default_lines
    return max(1, (footprint_kb * 1024) // patterns.LINE)


def _synth_spec(kernel: str, iters: int, threads: int,
                params: Dict[str, object]) -> WorkloadSpec:
    name = {"pchase": "pointer_chase", "random": "random_access"}.get(
        kernel, kernel)
    return WorkloadSpec(name=name, suite="synthetic", kernel=kernel,
                        base_iters=iters, params=params,
                        threads=threads)


@WORKLOADS.register("pointer_chase", tags=_SYNTH)
def pointer_chase(iters: int = 1300, nodes: Optional[int] = None,
                  footprint_kb: Optional[int] = None, stride: int = 64,
                  work_per_node: int = 1, branchy: bool = True,
                  value_lines: int = 8192, seed: int = 7,
                  threads: int = 1) -> WorkloadSpec:
    """mcf-like linked-list chase; ``footprint_kb``/``stride`` size the
    node array (``nodes`` overrides the count directly)."""
    if nodes is None:
        nodes = ((footprint_kb * 1024) // stride
                 if footprint_kb is not None else 8192)
    return _synth_spec("pchase", iters, threads, dict(
        nodes=nodes, work_per_node=work_per_node, branchy=branchy,
        value_lines=value_lines, seed=seed, stride=stride))


@WORKLOADS.register("stream", tags=_SYNTH)
def stream(iters: int = 1600, footprint_kb: Optional[int] = None,
           footprint_lines: Optional[int] = None, stride: int = 64,
           store_every: int = 0, threads: int = 1) -> WorkloadSpec:
    """lbm-like strided streaming; ``stride`` in bytes (a line
    multiple), footprint via ``footprint_kb`` or ``footprint_lines``."""
    if stride % patterns.LINE:
        raise ValueError("stream stride must be a multiple of %d bytes"
                         % patterns.LINE)
    if footprint_lines is None:
        footprint_lines = _footprint_lines(footprint_kb, 4096)
    return _synth_spec("stream", iters, threads, dict(
        footprint_lines=footprint_lines,
        stride_lines=stride // patterns.LINE, store_every=store_every))


@WORKLOADS.register("indirect", tags=_SYNTH)
def indirect(iters: int = 1100, footprint_kb: Optional[int] = None,
             footprint_lines: Optional[int] = None,
             index_lines: int = 512, branch_entropy: bool = True,
             seed: int = 11, threads: int = 1) -> WorkloadSpec:
    """xalancbmk-like ``B[A[i]]`` gathers (tainted second-load
    address)."""
    if footprint_lines is None:
        footprint_lines = _footprint_lines(footprint_kb, 2048)
    return _synth_spec("indirect", iters, threads, dict(
        footprint_lines=footprint_lines, index_lines=index_lines,
        branch_entropy=branch_entropy, seed=seed))


@WORKLOADS.register("random_access", tags=_SYNTH)
def random_access(iters: int = 1200, footprint_kb: Optional[int] = None,
                  footprint_lines: Optional[int] = None, seed: int = 3,
                  branch_entropy: bool = False,
                  threads: int = 1) -> WorkloadSpec:
    """milc-like LCG-addressed sparse access (taint-free,
    DRAM-bound)."""
    if footprint_lines is None:
        footprint_lines = _footprint_lines(footprint_kb, 16384)
    return _synth_spec("random", iters, threads, dict(
        footprint_lines=footprint_lines, seed=seed,
        branch_entropy=branch_entropy))


@WORKLOADS.register("compute", tags=_SYNTH)
def compute(iters: int = 800, div_every: int = 4, fp: bool = True,
            unroll: int = 4, threads: int = 1) -> WorkloadSpec:
    """gamess-like ALU/FP kernel with periodic non-pipelined
    divides."""
    return _synth_spec("compute", iters, threads, dict(
        div_every=div_every, fp=fp, unroll=unroll))


@WORKLOADS.register("mixed", tags=_SYNTH)
def mixed(iters: int = 1200, footprint_kb: Optional[int] = None,
          footprint_lines: Optional[int] = None, index_lines: int = 256,
          chase_nodes: int = 256, stream_weight: int = 1,
          indirect_weight: int = 1, chase_weight: int = 0,
          compute_weight: int = 1, store_weight: int = 0,
          branch_entropy: bool = True, div_in_compute: bool = False,
          seed: int = 23, threads: int = 1) -> WorkloadSpec:
    """Weighted composition of stream/indirect/chase/compute
    behaviours."""
    if footprint_lines is None:
        footprint_lines = _footprint_lines(footprint_kb, 4096)
    return _synth_spec("mixed", iters, threads, dict(
        footprint_lines=footprint_lines, index_lines=index_lines,
        chase_nodes=chase_nodes, stream_weight=stream_weight,
        indirect_weight=indirect_weight, chase_weight=chase_weight,
        compute_weight=compute_weight, store_weight=store_weight,
        branch_entropy=branch_entropy, div_in_compute=div_in_compute,
        seed=seed))
