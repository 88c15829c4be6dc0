"""Column energy pricing (:class:`EnergyEvents`) against the walk.

``EnergyModel._price_instructions`` walks a DynInst stream and is the
reference oracle; pricing the same stream from its lowered event
columns must give the same ``components``: same keys, same key order
and bit-equal floats, so every total and every canonical byte stays
the same.
"""

import pytest

pytest.importorskip("numpy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.accel import AnalysisContext, BSA_REGISTRY, SeqAllocator  # noqa: E402
from repro.accel.dp_cgra import DPCGRAModel  # noqa: E402
from repro.core_model import IO2, OOO4  # noqa: E402
from repro.energy.mcpat import EnergyEvents, EnergyModel  # noqa: E402
from repro.isa import Instruction, Opcode  # noqa: E402
from repro.sim.trace import DynInst  # noqa: E402
from repro.tdg.fastpath import lower_stream  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

from tests.test_accel_models import heavy_kernel  # noqa: E402

#: One in-order core (no rename/iq/rob events) and one OOO core.
CORES = (IO2, OOO4)


def events_of(stream):
    return EnergyEvents.of(lower_stream(stream))


def assert_same_pricing(stream, events, cores=CORES):
    assert len(events) == len(stream)
    for config in cores:
        model = EnergyModel(config)
        for kwargs in ({}, {"core_active": False,
                            "active_accels": ("trace_p", "simd")}):
            want = model.evaluate(stream, 777, **kwargs)
            got = model.evaluate(events, 777, **kwargs)
            assert list(got.components) == list(want.components)
            assert [v.hex() for v in got.components.values()] \
                == [v.hex() for v in want.components.values()]
            assert all(type(v) is float for v in got.components.values())
            assert got.total_pj.hex() == want.total_pj.hex()


@pytest.fixture(scope="module")
def tdgs(vector_tdg, branchy_tdg, nested_tdg):
    """Fixture kernels (the fourth is DP-CGRA's) and one workload."""
    return (vector_tdg, branchy_tdg, nested_tdg, heavy_kernel(),
            WORKLOADS["cjpeg1"].construct_tdg(scale=0.2))


@pytest.mark.parametrize("bsa", sorted(BSA_REGISTRY))
def test_transformed_streams_price_like_the_walk(bsa, tdgs):
    streams = 0
    for tdg in tdgs:
        ctx = AnalysisContext(tdg)
        model = BSA_REGISTRY[bsa]()
        for key, plan in model.find_candidates(ctx).items():
            for interval in ctx.intervals.get(key, ())[:3]:
                stream = model.transform_interval(
                    ctx, plan, interval, OOO4, SeqAllocator())
                assert_same_pricing(stream, events_of(stream))
                streams += 1
    assert streams, f"no {bsa} streams in any fixture"


def test_config_prefixed_dp_cgra_stream(tdgs):
    ctx = AnalysisContext(tdgs[3])
    model = DPCGRAModel()
    plan = next(iter(model.find_candidates(ctx).values()))
    interval = ctx.intervals[plan["loop"].key][0]
    for configure in (True, False):
        stream = model.transform_interval(ctx, plan, interval, IO2,
                                          SeqAllocator(),
                                          configure=configure)
        assert any(d.opcode is Opcode.CFG for d in stream) is configure
        assert_same_pricing(stream, events_of(stream))


def test_baseline_trace_and_loop_spans(tdgs):
    for tdg in tdgs:
        trace = tdg.trace.instructions
        events = events_of(trace)
        assert_same_pricing(trace, events)
        for spans in AnalysisContext(tdg).intervals.values():
            if spans:
                stream = [inst for start, end in spans
                          for inst in trace[start:end]]
                assert_same_pricing(stream, events.select(spans))


# ---------------------------------------------------------------------
# Generated streams: every event kind the walk prices.

_OPCODES = (
    Opcode.ADD, Opcode.MUL, Opcode.FMUL, Opcode.FDIV, Opcode.LD,
    Opcode.ST, Opcode.BR, Opcode.JMP, Opcode.VADD, Opcode.VLD,
    Opcode.VST, Opcode.VBLEND, Opcode.CFU, Opcode.SEND, Opcode.RECV,
    Opcode.CFG, Opcode.SWITCH,
)
_WITH_DEST = Instruction(Opcode.ADD, dest=3, srcs=(4,))
_NO_DEST = Instruction(Opcode.ST, srcs=(4, 5))


@st.composite
def dyn_insts(draw):
    opcode = draw(st.sampled_from(_OPCODES))
    memory = draw(st.booleans())
    return dict(
        static=draw(st.sampled_from((_WITH_DEST, _NO_DEST, None))),
        opcode=opcode,
        src_deps=tuple(draw(st.lists(st.integers(0, 40), max_size=3))),
        mem_addr=draw(st.integers(0, 4096)) if memory else None,
        mem_lat=draw(st.sampled_from((0, 3, 12, 150))),
        mem_level=draw(st.sampled_from((None, "l1", "l2", "dram"))),
        accel=draw(st.sampled_from(
            (None, None, "dp_cgra", "ns_df", "trace_p", "custom"))),
        vector_width=draw(st.integers(0, 8)),
        lat_override=draw(st.sampled_from((None, 1, 4))),
    )


@given(st.lists(dyn_insts(), max_size=60),
       st.lists(st.tuples(st.integers(0, 60), st.integers(0, 20)),
                max_size=4))
@settings(max_examples=150, deadline=None)
def test_generated_streams_price_like_the_walk(fields, ranges):
    stream = [DynInst(seq, **f) for seq, f in enumerate(fields)]
    events = events_of(stream)
    assert_same_pricing(stream, events)
    spans = [(start, min(len(stream), start + length))
             for start, length in ranges if start < len(stream)]
    if spans:
        assert_same_pricing(
            [inst for start, end in spans for inst in stream[start:end]],
            events.select(spans))
