"""Synthetic workloads standing in for SPEC CPU2006, SPECspeed 2017 and
Parsec (the substitution table is :mod:`repro.workloads.spec`).

Each benchmark in figs. 6-8 maps to a :class:`WorkloadSpec` — a kernel
pattern (stream / pointer-chase / indirect-index / random / compute /
mixed) with per-benchmark parameters chosen to reproduce the *shape* of
the paper's results: which workloads rely on misspeculated prefetching,
which are taint-sensitive, which are compute-bound.
"""

from repro.workloads.patterns import (
    stream_kernel,
    pointer_chase_kernel,
    indirect_kernel,
    random_kernel,
    compute_kernel,
    mixed_kernel,
)
from repro.workloads.spec import (
    WorkloadSpec,
    SPEC2006,
    SPEC2017,
    PARSEC,
    get_workload,
)

__all__ = [
    "stream_kernel",
    "pointer_chase_kernel",
    "indirect_kernel",
    "random_kernel",
    "compute_kernel",
    "mixed_kernel",
    "WorkloadSpec",
    "SPEC2006",
    "SPEC2017",
    "PARSEC",
    "get_workload",
]
