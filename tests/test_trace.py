"""Pipeline lifetime records folded from the obs event stream."""

import importlib.util
from pathlib import Path

from repro.defenses import registry
from repro.obs import Tracer, build_inst_records
from repro.pipeline.isa import Op
from repro.pipeline.program import ProgramBuilder
from repro.sim.simulator import Simulator

EXAMPLE = (Path(__file__).resolve().parent.parent / "examples"
           / "pipeline_trace.py")


def traced_run(program, defense="Unsafe", limit=300):
    sim = Simulator(program, registry[defense]())
    tracer = Tracer()
    sim.attach_obs(tracer)
    result = sim.run(max_cycles=100_000)
    assert result.finished
    records = build_inst_records(tracer.events, core=0, limit=limit)
    return tracer, records, result


def squash_cycles(tracer):
    return [e.cycle for e in tracer.events
            if e.kind == "squash" and e.core == 0]


def load_example():
    spec = importlib.util.spec_from_file_location("pipeline_trace", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simple_loop(n=10):
    b = ProgramBuilder()
    b.li(1, n)
    b.label("loop")
    b.load(2, None, imm=0x1000)
    b.alu(Op.SUB, 1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


def test_records_lifetimes():
    _tracer, records, _result = traced_run(simple_loop())
    committed = [r for r in records.values() if r.commit is not None]
    assert committed
    for record in committed:
        assert record.fetch <= record.commit
        if record.issue is not None:
            assert record.fetch <= record.issue
            assert record.issue <= record.commit


def test_marks_transient_instructions():
    b = ProgramBuilder()
    b.data(0x100, 1)
    b.load(1, None, imm=0x100)
    b.bnez(1, "t")
    b.li(2, 0xBAD)          # wrong path
    b.li(3, 0xBAD)
    b.label("t")
    b.halt()
    tracer, records, result = traced_run(b.build())
    assert result.stats.get("squash.events") >= 1
    assert [r for r in records.values() if r.squashed]
    assert squash_cycles(tracer)


def test_render_and_summary():
    tracer, records, _result = traced_run(simple_loop())
    example = load_example()
    ordered = sorted(records.values(), key=lambda r: r.seq)
    art = example.render(ordered[:12], width=40)
    assert "C" in art and "|" in art
    summary = example.summarize(records, squash_cycles(tracer))
    assert summary["committed"] > 0
    assert summary["mean_issue_to_commit"] >= 0


def test_limit_caps_records():
    _tracer, records, _result = traced_run(simple_loop(50), limit=10)
    assert len(records) <= 10


def test_tracing_does_not_change_timing():
    program = simple_loop(20)
    plain = Simulator(program, registry["GhostMinion"]())
    plain_result = plain.run(max_cycles=100_000)
    traced_sim = Simulator(simple_loop(20), registry["GhostMinion"]())
    traced_sim.attach_obs(Tracer())
    traced_result = traced_sim.run(max_cycles=100_000)
    assert plain_result.cycles == traced_result.cycles
