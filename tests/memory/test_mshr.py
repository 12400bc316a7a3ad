"""MSHR file: leapfrogging (fig. 5), timeleaping, squash semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.mshr import MSHRFile
from repro.memory.request import MemRequest, ReqState


def req(addr=0x100, ts=5, core=0, cycle=0):
    return MemRequest("load", addr, ts, core, cycle, True)


def test_allocate_find_drain():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=5, ready_cycle=10)
    assert mshrs.find(0x1) is entry
    assert mshrs.find(0x2) is None
    assert mshrs.drain(9) == []
    assert mshrs.drain(10) == [entry]
    assert mshrs.find(0x1) is None


def test_allocate_full_raises():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0x1, ts=5, ready_cycle=10)
    with pytest.raises(RuntimeError):
        mshrs.allocate(0x2, ts=6, ready_cycle=10)


def test_attach_lowers_timestamp_same_core_only():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=10, core=0)
    entry.attach(req(ts=4, core=0))
    assert entry.ts == 4
    entry.attach(req(ts=2, core=1))   # cross-core: no ordering
    assert entry.ts == 4


def test_fig5_leapfrog_scenario():
    """Fig. 5: entries at ts 22, 23, 28; a request at ts 25 steals the
    ts-28 entry, whose load must replay."""
    mshrs = MSHRFile(3, "m")
    mshrs.allocate(0xa, ts=22, ready_cycle=100)
    mshrs.allocate(0xb, ts=23, ready_cycle=100)
    victim_entry = mshrs.allocate(0xc, ts=28, ready_cycle=100)
    victim_req = req(addr=0xc0, ts=28)
    victim_entry.attach(victim_req)
    assert mshrs.full()
    victim = mshrs.leapfrog_victim(25, core=0)
    assert victim is victim_entry
    new_entry = mshrs.steal(victim, 0xd, ts=25, ready_cycle=120, core=0)
    assert victim_req.state is ReqState.REPLAY
    assert mshrs.find(0xd) is new_entry
    assert mshrs.find(0xc) is None


def test_no_leapfrog_when_all_older():
    """Waiting is safe when every occupant is at-or-before the
    requester's timestamp (all visible under Temporal Order)."""
    mshrs = MSHRFile(2, "m")
    mshrs.allocate(0xa, ts=3, ready_cycle=100)
    mshrs.allocate(0xb, ts=4, ready_cycle=100)
    assert mshrs.leapfrog_victim(9, core=0) is None


def test_prefetch_always_stealable():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=0, ready_cycle=100, prefetch=True)
    victim = mshrs.leapfrog_victim(5, core=0)
    assert victim is not None and victim.prefetch


def test_cross_core_entries_not_comparable():
    """Section 4.9: no Temporal Order across threads — a core may not
    leapfrog another core's demand entries."""
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=50, ready_cycle=100, core=1)
    assert mshrs.leapfrog_victim(5, core=0) is None


def test_squash_marked_entries_stealable_by_anyone():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=50, ready_cycle=100, core=0)
    assert mshrs.mark_squashed_above(40, core=0) == 1
    # even a younger request (ts 60) may steal a squashed entry
    assert mshrs.leapfrog_victim(60, core=0) is not None
    # and so may another core
    assert mshrs.leapfrog_victim(60, core=1) is not None


def test_mark_squashed_respects_boundary_and_core():
    mshrs = MSHRFile(4, "m")
    old = mshrs.allocate(0xa, ts=10, ready_cycle=100, core=0)
    young = mshrs.allocate(0xb, ts=50, ready_cycle=100, core=0)
    other = mshrs.allocate(0xc, ts=50, ready_cycle=100, core=1)
    assert mshrs.mark_squashed_above(40, core=0) == 1
    assert young.squashed and not old.squashed and not other.squashed


def test_timeleap_postpones_attached_requests():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=50)
    attached = req(ts=12)
    attached.mark_ready(50)
    entry.attach(attached)
    mshrs.timeleap(entry, ts=4, ready_cycle=80)
    assert entry.ts == 4
    assert entry.ready_cycle == 80
    assert attached.ready_cycle == 80
    assert not entry.squashed


def test_timeleap_never_advances_requests():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=50)
    attached = req(ts=12)
    attached.mark_ready(90)   # already later than the restart
    entry.attach(attached)
    mshrs.timeleap(entry, ts=4, ready_cycle=80)
    assert attached.ready_cycle == 90


def test_dependent_cascade_on_steal():
    """L2-level steal cancels waiting L1 entries (cascading leapfrogs)."""
    l2 = MSHRFile(1, "l2")
    l1 = MSHRFile(2, "l1")
    l2_entry = l2.allocate(0x1, ts=9, ready_cycle=100)
    l1_entry = l1.allocate(0x1, ts=9, ready_cycle=100)
    waiting = req(ts=9)
    waiting.mark_ready(100)
    l1_entry.attach(waiting)
    l2_entry.dependents.append((l1, l1_entry))
    l2.steal(l2_entry, 0x2, ts=3, ready_cycle=120)
    assert l1.find(0x1) is None
    assert waiting.state is ReqState.REPLAY


def test_dependent_cascade_on_timeleap():
    l2 = MSHRFile(1, "l2")
    l1 = MSHRFile(1, "l1")
    l2_entry = l2.allocate(0x1, ts=9, ready_cycle=100)
    l1_entry = l1.allocate(0x1, ts=9, ready_cycle=100)
    waiting = req(ts=9)
    waiting.mark_ready(100)
    l1_entry.attach(waiting)
    l2_entry.dependents.append((l1, l1_entry))
    l2.timeleap(l2_entry, ts=3, ready_cycle=150)
    assert l1_entry.ready_cycle == 150
    assert waiting.ready_cycle == 150


def test_drop_fills_above():
    mshrs = MSHRFile(2, "m")
    sink = []

    def fill(line, cycle, ts):
        sink.append((line, ts))

    entry = mshrs.allocate(0x1, ts=9, ready_cycle=10)
    entry.add_fill(fill)            # ts=None: uses entry.ts
    entry.add_fill(fill, ts=3)
    dropped = mshrs.drop_fills_above(5, {fill})
    assert dropped == 1             # the entry.ts=9 fill went; ts=3 stays
    assert len(entry.fill_actions) == 1


def test_earliest_free_cycle():
    mshrs = MSHRFile(2, "m")
    assert mshrs.earliest_free_cycle() == 0
    mshrs.allocate(0x1, ts=1, ready_cycle=30)
    mshrs.allocate(0x2, ts=2, ready_cycle=20)
    assert mshrs.earliest_free_cycle() == 20


def test_rejects_empty_file():
    with pytest.raises(ValueError):
        MSHRFile(0, "m")


#: (operation, which file, which entry / timestamp, cycle offset)
MSHR_OPS = st.lists(st.tuples(
    st.sampled_from(["allocate", "allocate_dependent", "timeleap",
                     "steal", "drain"]),
    st.integers(0, 1), st.integers(0, 7), st.integers(-4, 40)),
    max_size=60)


@settings(max_examples=300, deadline=None)
@given(ops=MSHR_OPS)
def test_due_bound_and_drain_match_a_full_scan(ops):
    """``_due`` stays a lower bound on every entry's ``ready_cycle``
    under allocation, timeleap (which may move an entry earlier or
    later, postponing its dependents), leapfrog steals and their
    cascading cancels; and ``drain(c)`` — whether it takes the no-scan
    fast path or not — pops exactly the entries a full scan finds due,
    in order."""
    l2 = MSHRFile(3, "l2")
    l1 = MSHRFile(4, "l1")
    files = (l1, l2)
    cycle = 0
    line = 0
    for op, which, pick, delta in ops:
        mshrs = files[which]
        line += 1
        if op == "allocate" and not mshrs.full():
            mshrs.allocate(line, ts=pick, ready_cycle=cycle + delta)
        elif op == "allocate_dependent" and not l1.full() and l2.entries:
            # An L1 miss waiting on an in-flight L2 entry: stealing or
            # timeleaping the L2 entry cascades to it.
            lower = l2.entries[pick % len(l2.entries)]
            upper = l1.allocate(line, ts=pick,
                                ready_cycle=lower.ready_cycle + delta)
            lower.dependents.append((l1, upper))
        elif op == "timeleap" and mshrs.entries:
            entry = mshrs.entries[pick % len(mshrs.entries)]
            mshrs.timeleap(entry, pick, cycle + delta)
        elif op == "steal" and mshrs.entries:
            victim = mshrs.entries[pick % len(mshrs.entries)]
            mshrs.steal(victim, line, pick, cycle + delta)
        elif op == "drain":
            cycle += max(delta, 0)
            due = [e for e in mshrs.entries if e.ready_cycle <= cycle]
            waiting = [e for e in mshrs.entries if e.ready_cycle > cycle]
            assert mshrs.drain(cycle) == due
            assert mshrs.entries == waiting
        for each in files:
            assert all(each._due <= e.ready_cycle for e in each.entries)
            if not each.entries:
                assert each.drain(cycle) == []
