"""Base (unsafe) hierarchy: timing composition, MSHR behaviour,
prefetcher integration, coherence plumbing."""

from repro.analysis.stats import Stats
from repro.config import default_config
from repro.defenses.unsafe import unsafe
from repro.memory.hierarchy import SharedMemory
from repro.memory.request import ReqState


def build(cfg=None, cores=1):
    cfg = cfg if cfg is not None else default_config(cores=cores)
    stats = Stats()
    shared = SharedMemory(cfg, stats)
    hierarchies = [unsafe().build_hierarchy(i, cfg, shared, stats)
                   for i in range(cores)]
    return hierarchies, shared, stats, cfg


def test_l1_hit_latency():
    (hier,), _shared, _stats, cfg = build()
    warm = hier.load(0x9000, ts=1, cycle=0)
    hier.drain(warm.ready_cycle + 1)
    hit = hier.load(0x9000, ts=2, cycle=100)
    assert hit.ready_cycle == 100 + cfg.l1d.latency
    assert hit.hit_level == 1


def test_miss_latency_composes_l1_l2_dram():
    (hier,), shared, _stats, cfg = build()
    req = hier.load(0x9000, ts=1, cycle=0)
    expected = (cfg.l1d.latency + cfg.l2.latency
                + shared.dram.cfg.base_latency)
    assert req.ready_cycle == expected
    assert req.hit_level == 3


def test_l2_hit_after_eviction_path():
    (hier,), shared, _stats, cfg = build()
    req = hier.load(0x9000, ts=1, cycle=0)
    hier.drain(req.ready_cycle + 1)
    # evict from L1 only; the unsafe baseline also filled the L2
    hier.dport.cache.invalidate(0x9000 >> 6)
    l2_hit = hier.load(0x9000, ts=2, cycle=1000)
    assert l2_hit.ready_cycle == 1000 + cfg.l1d.latency + cfg.l2.latency
    assert l2_hit.hit_level == 2


def test_same_line_requests_share_one_mshr():
    (hier,), _shared, _stats, _cfg = build()
    first = hier.load(0x9000, ts=1, cycle=0)
    second = hier.load(0x9008, ts=2, cycle=1)   # same line
    assert hier.dport.mshrs.occupancy() == 1
    assert second.ready_cycle >= first.ready_cycle


def test_mshr_backpressure_returns_none():
    (hier,), _shared, _stats, cfg = build()
    for i in range(cfg.l1d.mshrs):
        assert hier.load(0x9000 + i * 64, ts=i, cycle=0) is not None
    assert hier.load(0xF000, ts=99, cycle=0) is None


def test_fills_apply_on_drain():
    (hier,), _shared, _stats, _cfg = build()
    req = hier.load(0x9000, ts=1, cycle=0)
    assert not hier.dport.cache.contains(0x9000 >> 6)
    hier.drain(req.ready_cycle)
    assert hier.dport.cache.contains(0x9000 >> 6)


def test_store_commit_fills_and_invalidates_remotes():
    hierarchies, shared, _stats, _cfg = build(cores=2)
    h0, h1 = hierarchies
    req = h1.load(0x9000, ts=1, cycle=0)
    h1.drain(req.ready_cycle + 1)
    assert h1.dport.cache.contains(0x9000 >> 6)
    h0.store_commit(0x9000, ts=5, cycle=req.ready_cycle + 2)
    assert not h1.dport.cache.contains(0x9000 >> 6)
    assert h0.dport.cache.contains(0x9000 >> 6)
    assert shared.directory.owner(0x9000 >> 6) == 0


def test_refetch_is_eager_and_nonspeculative():
    (hier,), shared, stats, _cfg = build()
    done = hier.refetch(0x9000, ts=1, cycle=0)
    assert done > 0
    assert hier.dport.cache.contains(0x9000 >> 6)
    assert shared.l2.contains(0x9000 >> 6)
    assert stats.get("mem.refetches") == 1


def test_ifetch_probe_and_fill():
    (hier,), _shared, _stats, _cfg = build()
    assert not hier.ifetch_probe(0x40, ts=1, cycle=0)
    req = hier.ifetch(0x40, ts=1, cycle=0)
    assert req is not None
    assert hier.ifetch_probe(0x40, ts=2, cycle=req.ready_cycle)


def test_prefetcher_trains_on_stride_and_fills_l2():
    (hier,), shared, stats, _cfg = build()
    cycle = 0
    for i in range(8):
        req = hier.load(0x40000 + i * 64, ts=i, cycle=cycle)
        if req is not None:
            cycle = req.ready_cycle + 1
        hier.drain(cycle)
    assert stats.get("pf.issued") >= 1
    hier.drain(cycle + 500)
    # some line ahead of the stream is already in the L2
    ahead = [(0x40000 >> 6) + k for k in range(8, 16)]
    assert any(shared.l2.contains(line) for line in ahead)


def test_demand_promotion_of_prefetch_entry():
    (hier,), shared, stats, _cfg = build()
    cycle = 0
    for i in range(8):
        req = hier.load(0x40000 + i * 64, ts=i, cycle=cycle)
        if req is not None:
            cycle = req.ready_cycle + 1
        hier.drain(cycle)
    # a demand hit on an in-flight prefetch attaches without restart
    in_flight = [e.line for e in shared.l2_mshrs.entries if e.prefetch]
    if in_flight:
        line = in_flight[0]
        req = hier.load(line * 64, ts=100, cycle=cycle)
        assert req is not None
        assert stats.get("pf.demand_promotions") >= 1


def test_unsafe_never_replays():
    (hier,), _shared, _stats, cfg = build()
    reqs = [hier.load(0x9000 + i * 64, ts=i, cycle=0)
            for i in range(cfg.l1d.mshrs)]
    late_old = hier.load(0xF000, ts=0, cycle=1)
    assert late_old is None                      # retry, not leapfrog
    assert all(r.state is not ReqState.REPLAY for r in reqs)


def test_drain_applies_a_due_l2_fill_while_the_l1_files_idle():
    """``drain`` returns without work only while no MSHR file — the L1
    sides *and* the shared L2 — can have a fill due: an L2-only entry
    (here a prefetch) still fills the L2 at its ready cycle."""
    (hier,), shared, _stats, cfg = build()
    shared._issue_prefetch(0x77, 0, speculative=False)
    (entry,) = shared.l2_mshrs.entries
    assert not hier.dport.mshrs.entries and not hier.iport.mshrs.entries
    hier.drain(entry.ready_cycle - 1)
    assert not shared.l2.contains(0x77)
    hier.drain(entry.ready_cycle)
    assert shared.l2.contains(0x77)
    assert not shared.l2_mshrs.entries
