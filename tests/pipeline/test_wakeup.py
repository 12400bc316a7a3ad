"""Wakeup-driven issue: the ready list and pending counts stay exact.

Issue walks only ``HotCore.ready`` (and counts the loads in
``HotCore.parked`` in bulk), and ``Core.next_event_cycle`` reads the
same lists for its proof, so both are only as good as the invariants
that every cycle must keep:

* ``ready`` and ``parked`` are seq-ordered and disjoint;
* together they hold exactly the IQ entries whose producers are all
  ``ST_DONE`` — plus, under §4.9 strict FU order, every non-pipelined
  IQ entry (issue must see an older operand-waiting op to block its
  class);
* each parked load sits on exactly one store's ``mem_waiters``, and
  that store is still the one its store-queue check stops at (the
  store cannot have generated its address or completed since: either
  would have woken the load);
* each in-flight instruction's ``pending`` equals its number of
  unfinished producers, and each unfinished producer's ``consumers``
  links it back once per such operand.

The matrix dense-steps small points and checks them after every
``Core.step``: the pointer-chase, stream and FP-divide compute kernels
under Unsafe, GhostMinion (strict FU + early commit), STT-Future,
InvisiSpec-Future and MuonTrap, a 4-thread mix, a store-heavy 4-thread
mix whose loads wait behind older stores, and a starved-MSHR config
whose leapfrogged loads re-enter ``ready`` through REPLAY.
"""

from collections import Counter

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.exp.spec import resolve_workload
from repro.pipeline.hotcore import ST_DONE
from repro.sim.simulator import Simulator

MAX_CYCLES = 200_000

DEFENSES = {
    "Unsafe": lambda: registry["Unsafe"](),
    "GhostMinion-strict-fu-early-commit": lambda: ghostminion(
        strict_fu_order=True, early_commit=True),
    "STT-Future": lambda: registry["STT-Future"](),
    "InvisiSpec-Future": lambda: registry["InvisiSpec-Future"](),
    "MuonTrap": lambda: registry["MuonTrap"](),
}

#: Loads behind older stores: the default ``mixed`` has no stores.
STORE_HEAVY = "mixed(threads=4, store_weight=1)"

#: Every defense over the single-thread kernels, at the 50-iteration
#: floor of ``WorkloadSpec.build``.  The 4-thread mix costs several
#: single-thread points, so it runs once, under the defense that
#: changes issue the most (strict FU order).
POINTS = [(workload, defense)
          for workload in ("pointer_chase", "stream", "compute(fp=True)")
          for defense in sorted(DEFENSES)] + [
    ("mixed(threads=4, div_in_compute=True)",
     "GhostMinion-strict-fu-early-commit"),
    (STORE_HEAVY, "Unsafe")]

SCALE = 0.01


def _starved_mshrs(cfg):
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


def _make_sim(workload, scale, defense_fn, cfg_fn=None):
    programs = resolve_workload(workload).build(scale)
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    return Simulator(programs, defense_fn(), cfg=cfg)


def assert_wakeup_invariants(core):
    live = [di for di in core.rob if di.state != ST_DONE]
    # Every producer of a finished instruction finished before it issued.
    assert all(di.pending == 0 and di.consumers == []
               for di in core.rob if di.state == ST_DONE)
    # (producer, consumer) once per operand still waiting on producer...
    needed = Counter((producer, di) for di in live
                     for producer, _value in di.operands
                     if producer is not None and producer.state != ST_DONE)
    # ...is exactly the set of live wakeup links, and the pending counts.
    assert Counter((di, consumer) for di in live
                   for consumer in di.consumers
                   if not consumer.squashed) == needed
    unfinished = Counter(di for _producer, di in needed.elements())
    assert all(di.pending == unfinished[di] for di in live)
    ready = core.ready
    parked = core.parked
    for name, queue in (("ready", ready), ("parked", parked)):
        seqs = [di.seq for di in queue]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), (
            "%s list out of seq order: %r" % (name, seqs))
    expected = [di for di in core.iq
                if not unfinished[di]
                or (core._strict_fu and not di.instr.pipelined)]
    assert sorted(map(id, ready + parked)) == sorted(map(id, expected)), (
        "ready %r + parked %r != expected %r"
        % ([d.seq for d in ready], [d.seq for d in parked],
           sorted(d.seq for d in expected)))
    # Only live stores hold parked loads, each load exactly once, and
    # the holder is still the store the load's check stops at.
    holders = {}
    for di in core.rob:
        for load in di.mem_waiters:
            assert di.instr.is_store and di.state != ST_DONE, di
            assert id(load) not in holders, "load parked twice: %r" % load
            holders[id(load)] = di
    assert sorted(holders) == sorted(map(id, parked))
    for load in parked:
        assert load.instr.is_load and load.pending == 0
        assert core._older_store_conflict(load, load.addr) \
            is holders[id(load)]


def dense_step_checked(sim):
    """The dense loop (``Simulator.run(dense=True)``), checking the
    invariants after every ``Core.step``."""
    while sim.cycle < MAX_CYCLES:
        all_halted = True
        for core in sim.cores:
            if not core.halted:
                core.step(sim.cycle)
                assert_wakeup_invariants(core)
                if not core.halted:
                    all_halted = False
        sim.cycle += 1
        if all_halted:
            return
    raise AssertionError("point did not finish in %d cycles" % MAX_CYCLES)


@pytest.mark.parametrize(
    "workload,defense", POINTS,
    ids=["%s-%s" % (w.split("(")[0], d) for w, d in POINTS])
def test_ready_list_invariants(workload, defense):
    sim = _make_sim(workload, SCALE, DEFENSES[defense])
    dense_step_checked(sim)
    if defense.startswith("GhostMinion") and (
            "fp=True" in workload or "div_in_compute" in workload):
        # Non-vacuous: strict FU order really held back a divide.
        blocked = sum(sim.stats.get("fu.%s.strict_blocked" % cls)
                      for cls in ("int", "fp", "muldiv"))
        assert blocked > 0
    if workload == STORE_HEAVY:
        # Loads really waited behind older stores, and parking them did
        # not change the count: these are the cycles and the
        # ``lsq.load_waits`` total the per-cycle store-queue poll
        # produced before loads were parked.  (The dense/event
        # equivalence gates cannot see a bump rule both paths share.)
        assert sim.cycle == 6459
        assert sim.stats.get("lsq.load_waits") == 180876


def test_ready_list_invariants_with_replayed_loads():
    sim = _make_sim("pointer_chase", SCALE,
                    lambda: registry["GhostMinion"](), cfg_fn=_starved_mshrs)
    dense_step_checked(sim)
    # Non-vacuous: leapfrogged loads came back through REPLAY.
    assert sim.stats.get("mem.load_replays") > 0


def test_parked_load_waits_follow_the_issue_width():
    """With one issue slot and starved MSHRs, a load retrying under
    backpressure often takes the only slot while younger loads are
    parked: then only the parked loads older than it count a store
    wait that cycle, in the dense walk and in the skip proof alike.
    Pinned to the per-cycle poll's counts, and dense == event."""
    def narrow(cfg):
        cfg = _starved_mshrs(cfg)
        cfg.core.issue_width = 1
        return cfg

    dense = _make_sim(STORE_HEAVY, SCALE, lambda: registry["Unsafe"](),
                      cfg_fn=narrow)
    dense_step_checked(dense)
    event = _make_sim(STORE_HEAVY, SCALE, lambda: registry["Unsafe"](),
                      cfg_fn=narrow)
    result = event.run(dense=False)
    assert dense.cycle == result.cycles == 9829
    dense.stats.set("sim.cycles", dense.cycle)  # as Simulator.run does
    assert result.stats.as_dict() == dense.stats.as_dict()
    assert result.stats.get("lsq.load_waits") == 167880
    assert result.skipped_by_class.get("lsq-store-addr", 0) > 0


def test_checkpoint_mid_flight_wakeup_state_matches_cold():
    """A snapshot taken with non-empty ``ready``, ``parked``,
    ``consumers`` and ``mem_waiters`` restores the links with their
    identities intact: the continued run is byte-identical to a cold
    one."""
    def make():
        return _make_sim(
            "mixed(threads=4, div_in_compute=True, store_weight=1)",
            SCALE, lambda: ghostminion(strict_fu_order=True))

    cold = make().run()
    warm = make()
    warm.run(max_insts=300)
    assert any(core.ready for core in warm.cores)
    assert any(core.parked for core in warm.cores)
    assert any(di.consumers for core in warm.cores for di in core.rob)
    resumed = Simulator.restore(warm.snapshot())
    for core in resumed.cores:
        assert_wakeup_invariants(core)
    result = resumed.run()
    assert result.cycles == cold.cycles
    assert result.stats.as_dict() == cold.stats.as_dict()
    for core in range(len(cold.cores)):
        assert result.arch_regs(core) == cold.arch_regs(core)
