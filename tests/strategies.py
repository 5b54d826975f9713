"""Shared hypothesis strategies for differential testing: random netlists
and random stimulus programs."""

from hypothesis import strategies as st

from repro.netlist.builder import CircuitBuilder

_TWO_INPUT = ("and_", "or_", "xor", "nand", "nor", "xnor")
_ONE_INPUT = ("not_", "buf")


@st.composite
def random_circuits(draw, max_ops=24, allow_registers=True):
    """Build a random netlist; returns (netlist, input_nets, probe_nets).

    Every created net is marked as an output so nothing is dead; register
    feedback is exercised by allowing DFFs whose D input is any existing net.
    """
    n_inputs = draw(st.integers(2, 5))
    builder = CircuitBuilder("random")
    nets = [builder.input(f"in{i}") for i in range(n_inputs)]
    inputs = list(nets)
    n_ops = draw(st.integers(1, max_ops))
    kinds = list(_TWO_INPUT) + list(_ONE_INPUT) + (
        ["reg"] if allow_registers else []
    ) + ["mux"]
    for index in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        pick = lambda: nets[draw(st.integers(0, len(nets) - 1))]
        if kind in _TWO_INPUT:
            net = getattr(builder, kind)(pick(), pick())
        elif kind in _ONE_INPUT:
            net = getattr(builder, kind)(pick())
        elif kind == "mux":
            net = builder.mux(pick(), pick(), pick())
        else:
            net = builder.reg(pick(), f"r{index}")
        nets.append(net)
    builder.output(nets[-1], "out")
    return builder.build(), inputs, nets


@st.composite
def masked_circuits(draw, max_masks=8, max_extra_ops=10):
    """Build a random masked netlist with a bounded randomness budget.

    Returns a :class:`DesignUnderTest` with one secret bit in two shares
    plus 1..``max_masks`` fresh mask bits, all mixed into a combinational
    chain so the widest probe's enumeration space stays small and exactly
    enumerable.  A deterministic chain touches every input (giving the
    final cell a full support, which exercises multi-shard plans); the
    extra random gates give the probe classes varied shapes.
    """
    from repro.leakage.dut import DesignUnderTest

    n_masks = draw(st.integers(1, max_masks))
    builder = CircuitBuilder("masked_random")
    s0 = builder.input("s0")
    s1 = builder.input("s1")
    masks = [builder.input(f"m{i}") for i in range(n_masks)]
    nets = [s0, s1] + list(masks)
    # chain through every input so at least one probe sees them all.
    chain = s0
    for index, net in enumerate(nets[1:]):
        kind = draw(st.sampled_from(("xor", "and_", "or_")))
        chain = getattr(builder, kind)(chain, net, name=f"chain{index}")
    nets.append(chain)
    for index in range(draw(st.integers(0, max_extra_ops))):
        kind = draw(st.sampled_from(_TWO_INPUT + _ONE_INPUT))
        pick = lambda: nets[draw(st.integers(0, len(nets) - 1))]
        if kind in _TWO_INPUT:
            nets.append(getattr(builder, kind)(pick(), pick(), name=f"extra{index}"))
        else:
            nets.append(getattr(builder, kind)(pick(), name=f"extra{index}"))
    builder.output(nets[-1], "out")
    netlist = builder.build()
    return DesignUnderTest(
        netlist=netlist,
        share_buses=[[s0], [s1]],
        mask_bits=list(masks),
        latency=0,
        metadata={"design": "masked_random"},
    )


@st.composite
def input_sequences(draw, n_inputs, n_cycles_range=(1, 6)):
    """Random per-cycle scalar input assignments."""
    n_cycles = draw(st.integers(*n_cycles_range))
    return [
        [draw(st.integers(0, 1)) for _ in range(n_inputs)]
        for _ in range(n_cycles)
    ]


@st.composite
def plan_programs(draw, n_words=st.integers(1, 3)):
    """A random stimulus program as plain data, buildable many times.

    Covers every opcode: DRAW/CONST/COPY/XOR/XORC in random dependency
    order and zero to three NZ8 ops anywhere among them (their
    rejection-sampling retry path fires often at 64+ lanes; later ops
    may read their rows).  Some non-NZ8 rows are scratch (bound to no
    net), as the fixed group's secret rows and partial sums are in real
    plans.  Each op is ``(kind, operands, bound)``; see :func:`build_plan`.
    """
    n_words = draw(n_words)
    period = draw(st.integers(1, 4))
    cols = [
        [draw(st.integers(0, 1)) for _ in range(period)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    n_simple = draw(st.integers(1, 10))
    nz8_at = [
        draw(st.integers(0, n_simple))
        for _ in range(draw(st.integers(0, 3)))
    ]
    ops = []
    n_rows = 0
    for index in range(n_simple + 1):
        for _ in range(nz8_at.count(index)):
            ops.append(("nz8", (), True))
            n_rows += 8
        if index == n_simple:
            break
        kinds = ["draw", "const"]
        if n_rows:
            kinds += ["copy", "xor", "xorc"]
        kind = draw(st.sampled_from(kinds))
        row = lambda: draw(st.integers(0, n_rows - 1))
        col = lambda: draw(st.integers(0, len(cols) - 1))
        if kind == "draw":
            operands = ()
        elif kind == "const":
            operands = (col(),)
        elif kind == "copy":
            operands = (row(),)
        elif kind == "xor":
            operands = (row(), row())
        else:
            operands = (row(), col())
        ops.append((kind, operands, draw(st.booleans())))
        n_rows += 1
    return n_words, period, cols, ops


def build_plan(spec, rng):
    """Materialize a :func:`plan_programs` spec drawing from ``rng``.

    Bound rows drive nets 0, 1, 2, ... in row order.  Identical specs
    and seeds draw the same stream no matter which executor later runs
    the plan.
    """
    from repro.leakage.stimplan import StimulusPlanBuilder

    n_words, period, cols, ops = spec
    builder = StimulusPlanBuilder(n_words, period=period)
    col_ids = [builder.column(bits) for bits in cols]
    net = 0
    for kind, operands, bound in ops:
        if kind == "nz8":
            builder.nonzero8(list(range(net, net + 8)))
            net += 8
            continue
        target = net if bound else None
        net += bound
        if kind == "draw":
            builder.draw(net=target)
        elif kind == "const":
            builder.const(col_ids[operands[0]], net=target)
        elif kind == "copy":
            builder.copy(operands[0], net=target)
        elif kind == "xor":
            builder.xor(operands[0], operands[1], net=target)
        else:
            builder.xor_const(operands[0], col_ids[operands[1]], net=target)
    return builder.build(rng)
