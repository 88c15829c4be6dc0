"""Event-driven core + accelerator energy model (the McPAT stand-in).

The TDG accumulates per-instruction energy events; this module prices
them with coefficients scaled by the core configuration (wider
machines pay superlinearly for rename/select/bypass, as McPAT does)
and adds structure leakage integrated over cycles.

All dynamic coefficients are in pJ at a nominal 22nm / 2GHz point.
Absolute joules are not the point (the paper reports relative energy);
the scaling *between* configurations is what matters.
"""

from repro.isa.opcodes import Opcode, OpClass, is_vector, op_class
from repro.tdg.fastpath import MEM_LEVEL_CODES, OPCODES
from repro.energy.cacti import (
    L1D_SRAM, L1I_SRAM, L2_SRAM, DRAM_ACCESS_PJ,
)

try:
    import numpy as _np
except ImportError:          # pragma: no cover - exercised in CI no-numpy job
    _np = None

#: Functional-unit op energy by class (pJ per scalar op).
_FU_PJ = {
    OpClass.ALU: 4.0,
    OpClass.MUL: 12.0,
    OpClass.FP: 18.0,
    OpClass.FP_DIV: 45.0,
    OpClass.BRANCH: 3.0,
    OpClass.CONTROL: 1.5,
    OpClass.MEM_LD: 0.0,   # priced via the cache model
    OpClass.MEM_ST: 0.0,
    OpClass.ACCEL: 4.0,
}

#: Vector lanes share control overhead: per-lane discount.
_VECTOR_LANE_FACTOR = 0.65

#: Accelerator-side coefficients (pJ), from the publications the paper
#: cites (DySER / SEED / BERET energy tables), rounded.
_ACCEL_OP_PJ = {
    "dp_cgra": 3.5,    # CGRA FU op
    "ns_df": 5.0,      # dataflow fire + operand storage
    "trace_p": 4.5,    # trace CFU slot
}
_ACCEL_NETWORK_PJ = {
    "dp_cgra": 2.0,    # switch traversal
    "ns_df": 2.0,      # writeback bus
    "trace_p": 1.5,
}
_CFU_EXTRA_OP_PJ = 3.0      # per additional fused op inside a CFU
_CONFIG_PJ = 250.0          # loading one accelerator configuration
_SEND_RECV_PJ = 6.0         # core <-> accelerator operand transfer
_STORE_BUFFER_PJ = 8.0      # Trace-P iteration-versioned store buffer

#: Accelerator leakage while powered on (pJ/cycle).
ACCEL_LEAK_PJ = {
    "simd": 6.0,
    "dp_cgra": 20.0,
    "ns_df": 12.0,
    "trace_p": 10.0,
}

#: Fraction of core leakage that remains when an offload BSA power-
#: gates the core (caches + wakeup logic stay on) — paper section 5.3.
POWER_GATED_CORE_LEAK_FRACTION = 0.3


class EnergyBreakdown:
    """Per-component energy (pJ) with a convenience total."""

    def __init__(self):
        self.components = {}

    def add(self, component, picojoules):
        if picojoules:
            self.components[component] = (
                self.components.get(component, 0.0) + picojoules
            )

    def merge(self, other):
        for component, picojoules in other.components.items():
            self.add(component, picojoules)
        return self

    @property
    def total_pj(self):
        return sum(self.components.values())

    @property
    def total_nj(self):
        return self.total_pj / 1000.0

    def fraction(self, component):
        total = self.total_pj
        return self.components.get(component, 0.0) / total if total else 0.0

    def __repr__(self):
        return f"<EnergyBreakdown {self.total_nj:.1f} nJ>"


class EnergyModel:
    """Prices TDG event streams for one core configuration."""

    def __init__(self, config):
        self.config = config
        width = config.width
        # Superlinear frontend/backend scaling, McPAT-style.
        width_factor = (width / 2.0) ** 0.7
        self.fetch_pj = L1I_SRAM.access_energy_pj / 2.0 + 3.0
        self.decode_pj = 3.0 * width_factor
        self.bpred_pj = 2.0
        self.commit_pj = 1.5 * width_factor
        self.regread_pj = 2.5 * (1.0 + 0.15 * (width - 2))
        self.regwrite_pj = 3.5 * (1.0 + 0.15 * (width - 2))
        self.bypass_pj = 2.5 * width_factor
        if config.in_order:
            self.rename_pj = 0.0
            self.iq_pj = 1.0      # simple scoreboard
            self.rob_pj = 0.0
            self.lsq_pj = 2.0
        else:
            self.rename_pj = 5.0 * width_factor
            self.iq_pj = 7.0 * (config.iq_size / 32.0) ** 0.5
            self.rob_pj = 5.0 * (config.rob_size / 64.0) ** 0.3
            self.lsq_pj = 7.0
        self.l1d_pj = L1D_SRAM.access_energy_pj
        self.l2_pj = L2_SRAM.access_energy_pj
        self.dram_pj = DRAM_ACCESS_PJ
        self.core_leak_pj_per_cycle = self._core_leakage()

    def _core_leakage(self):
        config = self.config
        leak = 4.0 + 3.0 * config.width
        leak += 4.0 * config.fp_units + 1.5 * config.alu_units
        if not config.in_order:
            leak += 8.0 * (config.rob_size / 64.0)
            leak += 3.0 * (config.iq_size / 32.0)
        leak += L1I_SRAM.leakage_pj_per_cycle
        leak += L1D_SRAM.leakage_pj_per_cycle
        leak += L2_SRAM.leakage_pj_per_cycle
        return leak

    # ------------------------------------------------------------------
    def evaluate(self, stream, cycles, core_active=True,
                 active_accels=()):
        """Energy of executing *stream* over *cycles* cycles.

        ``core_active=False`` models offload regions where the BSA
        power-gates the core pipeline (NS-DF, Trace-P).
        *active_accels* names BSAs powered on during these cycles.
        """
        breakdown = EnergyBreakdown()
        if isinstance(stream, EnergyEvents):
            self._price_events(stream, breakdown)
        else:
            self._price_instructions(stream, breakdown)
        # Leakage.
        core_leak = self.core_leak_pj_per_cycle
        if not core_active:
            core_leak *= POWER_GATED_CORE_LEAK_FRACTION
        breakdown.add("leak_core", core_leak * cycles)
        for accel in active_accels:
            breakdown.add(f"leak_{accel}",
                          ACCEL_LEAK_PJ.get(accel, 8.0) * cycles)
        return breakdown

    def _price_events(self, events, breakdown):
        """Column twin of :meth:`_price_instructions`, bit for bit.

        The components whose coefficients do not depend on the core
        come precomputed with *events*; this adds the ones that do and
        inserts every component in the walk's first-seen order.
        """
        terms = list(events.static_terms)
        core = events.core
        constant = [("fetch", self.fetch_pj), ("decode", self.decode_pj)]
        if not self.config.in_order:
            constant += [("rename", self.rename_pj), ("iq", self.iq_pj),
                         ("rob", self.rob_pj)]
        constant += [("bypass", self.bypass_pj),
                     ("commit", self.commit_pj)]
        for name, picojoules in constant:
            _add_constant(terms, name, core, picojoules)
        _add_term(terms, "regfile", core,
                  self.regread_pj * events.core_nsrc
                  + self.regwrite_pj * events.core_dest)
        _add_constant(terms, "bpred", events.branches, self.bpred_pj)
        _add_constant(terms, "lsq", events.core_mem, self.lsq_pj)
        _add_term(terms, "l1d", events.mem,
                  _np.where(events.mem_on_accel, L1D_SRAM.access_energy_pj,
                            self.l1d_pj * events.mem_lane_factor),
                  events.mem_on_accel)
        _add_term(terms, "l2", events.l2,
                  _np.where(events.l2_on_accel, L2_SRAM.access_energy_pj,
                            self.l2_pj),
                  events.l2_on_accel)
        _add_term(terms, "dram", events.dram,
                  _np.where(events.dram_on_accel, DRAM_ACCESS_PJ,
                            self.dram_pj),
                  events.dram_on_accel)
        terms.sort()
        components = breakdown.components
        for _, _, name, picojoules in terms:
            components[name] = picojoules

    def _price_instructions(self, stream, breakdown):
        """Reference oracle: one walk over the DynInst stream."""
        in_order = self.config.in_order
        for inst in stream:
            opcode = inst.opcode
            if inst.accel is not None:
                self._price_accel_inst(inst, breakdown)
                continue
            # ---- core pipeline events -----------------------------
            breakdown.add("fetch", self.fetch_pj)
            breakdown.add("decode", self.decode_pj)
            if not in_order:
                breakdown.add("rename", self.rename_pj)
                breakdown.add("iq", self.iq_pj)
                breakdown.add("rob", self.rob_pj)
            breakdown.add("regfile",
                          self.regread_pj * len(inst.src_deps)
                          + (self.regwrite_pj
                             if inst.static is not None
                             and inst.static.dest is not None else 0.0))
            breakdown.add("bypass", self.bypass_pj)
            breakdown.add("commit", self.commit_pj)
            op_cls = inst.op_class
            fu_pj = _FU_PJ[op_cls]
            lanes = inst.vector_width
            if lanes > 1 or is_vector(opcode):
                lanes = max(lanes, 1)
                fu_pj = fu_pj * lanes * _VECTOR_LANE_FACTOR
                breakdown.add("simd_fu", fu_pj)
            else:
                breakdown.add("fu", fu_pj)
            if opcode is Opcode.BR:
                breakdown.add("bpred", self.bpred_pj)
            if opcode in (Opcode.SEND, Opcode.RECV):
                breakdown.add("accel_comm", _SEND_RECV_PJ)
            if opcode is Opcode.CFG:
                breakdown.add("accel_config", _CONFIG_PJ)
            if inst.mem_addr is not None:
                breakdown.add("lsq", self.lsq_pj)
                lanes = max(inst.vector_width, 1)
                breakdown.add("l1d", self.l1d_pj * (1 + 0.3 * (lanes - 1)))
                if inst.mem_level in ("l2", "dram"):
                    breakdown.add("l2", self.l2_pj)
                if inst.mem_level == "dram":
                    breakdown.add("dram", self.dram_pj)

    @staticmethod
    def _price_accel_inst(inst, breakdown):
        accel = inst.accel
        opcode = inst.opcode
        op_pj = _ACCEL_OP_PJ.get(accel, 4.0)
        net_pj = _ACCEL_NETWORK_PJ.get(accel, 2.0)
        if opcode is Opcode.CFU:
            fused = max(inst.vector_width, 1)
            breakdown.add(f"{accel}_cfu",
                          op_pj + _CFU_EXTRA_OP_PJ * (fused - 1))
        elif opcode is Opcode.CFG:
            breakdown.add("accel_config", _CONFIG_PJ)
        else:
            breakdown.add(f"{accel}_op", op_pj)
        breakdown.add(f"{accel}_net", net_pj)
        if inst.mem_addr is not None:
            breakdown.add("l1d", L1D_SRAM.access_energy_pj)
            if inst.mem_level in ("l2", "dram"):
                breakdown.add("l2", L2_SRAM.access_energy_pj)
            if inst.mem_level == "dram":
                breakdown.add("dram", DRAM_ACCESS_PJ)
            if accel == "trace_p" and inst.opcode is Opcode.ST:
                breakdown.add("store_buffer", _STORE_BUFFER_PJ)


# ---------------------------------------------------------------------------
# Column pricing.

#: Order in which the walk adds a core instruction's components; a
#: component first seen at the same instruction as another sorts by
#: this rank.  ``fu``/``simd_fu`` are exclusive and share a slot.
_CORE_RANK = {name: rank for rank, name in enumerate((
    "fetch", "decode", "rename", "iq", "rob", "regfile", "bypass",
    "commit", "fu", "bpred", "accel_comm", "accel_config", "lsq", "l1d",
    "l2", "dram"))}
_CORE_RANK["simd_fu"] = _CORE_RANK["fu"]

#: The same for accelerator instructions; the op slot is one of
#: ``<accel>_cfu``, ``accel_config`` or ``<accel>_op``.
_ACCEL_RANK = {"op": 0, "accel_config": 0, "net": 1, "l1d": 2, "l2": 3,
               "dram": 4, "store_buffer": 5}


def _repeat_sum(picojoules, count):
    """*picojoules* added *count* times in sequence, as the walk does."""
    return float(_np.add.accumulate(_np.full(count, picojoules))[-1])


def _add_term(terms, name, positions, values, on_accel=False,
              slot=None):
    """Append one component's ``(first, rank, name, total)`` term.

    *values* are its per-instruction picojoules at stream *positions*
    (zeros allowed, as the walk skips them).  The total adds them in
    stream order, as the walk does: ``np.add.accumulate`` is
    sequential, where ``np.sum`` would sum pairwise and change the last
    bits.  *on_accel* (a flag, or one per position) picks the rank
    table of the instruction the component is first seen at; *slot*
    names its rank when that differs from *name*.
    """
    nonzero = _np.flatnonzero(values)
    if not nonzero.size:
        return
    first = nonzero[0]
    if not isinstance(on_accel, bool):
        on_accel = bool(on_accel[first])
    ranks = _ACCEL_RANK if on_accel else _CORE_RANK
    terms.append((int(positions[first]), ranks[slot or name], name,
                  float(_np.add.accumulate(values)[-1])))


def _add_constant(terms, name, positions, picojoules, on_accel=False,
                  slot=None):
    """:func:`_add_term` for *picojoules* at every one of *positions*."""
    if picojoules and len(positions):
        ranks = _ACCEL_RANK if on_accel else _CORE_RANK
        terms.append((int(positions[0]), ranks[slot or name], name,
                      _repeat_sum(picojoules, len(positions))))


#: Opcode ids of the ``op`` column, and per-id lookups over them.
_OP = {opcode: i for i, opcode in enumerate(OPCODES)}
if _np is not None:
    _FU_PJ_BY_OP = _np.array([_FU_PJ[op_class(o)] for o in OPCODES])
    _IS_VECTOR_BY_OP = _np.array([is_vector(o) for o in OPCODES])


class EnergyEvents:
    """One stream's energy events as columns, priced per core.

    Built from the event columns a
    :class:`~repro.tdg.fastpath.LoweredStream` fills in its lowering
    pass, so a stream is walked once however many cores price it.
    Everything that does not depend on the core is computed here once;
    :meth:`EnergyModel.evaluate` adds the rest and yields the same
    ``components`` (keys, key order and float bits) as the
    per-instruction walk.  Requires numpy; ``len()`` is the number of
    instructions, as for a DynInst list.
    """

    def __init__(self, op, nsrc, dest, vwidth, level, is_mem,
                 accel_tag, accel_tags):
        self._columns = (op, nsrc, dest, vwidth, level, is_mem,
                         accel_tag)
        self._accel_tags = accel_tags
        self.n = len(op)
        on_accel = accel_tag >= 0
        core = self.core = _np.flatnonzero(~on_accel)
        core_op = op[core]
        self.core_nsrc = nsrc[core].astype(_np.float64)
        self.core_dest = dest[core].astype(_np.float64)
        self.branches = core[core_op == _OP[Opcode.BR]]
        mem = self.mem = _np.flatnonzero(is_mem)
        self.mem_on_accel = on_accel[mem]
        self.core_mem = mem[~self.mem_on_accel]
        self.mem_lane_factor = \
            1 + 0.3 * (_np.maximum(vwidth[mem], 1) - 1)
        mem_level = level[mem]
        self.l2 = mem[mem_level != 0]           # missed L1: l2 or dram
        self.l2_on_accel = on_accel[self.l2]
        self.dram = mem[mem_level == MEM_LEVEL_CODES["dram"]]
        self.dram_on_accel = on_accel[self.dram]
        self.static_terms = self._static_terms(
            op, vwidth, is_mem, accel_tag, accel_tags, on_accel, core,
            core_op)

    @classmethod
    def of(cls, lowered):
        """Events of a lowered stream, or None without numpy."""
        if _np is None:
            return None
        return cls(*(getattr(lowered, field)
                     for field in lowered.EVENT_FIELDS),
                   lowered.is_mem, lowered.accel_tag, lowered.accel_tags)

    def select(self, spans):
        """Events of the instructions in *spans* (``(start, end)``
        ranges), concatenated in order."""
        index = _np.concatenate(
            [_np.arange(start, end) for start, end in spans]) \
            if spans else _np.zeros(0, dtype=_np.int64)
        return EnergyEvents(*(column[index] for column in self._columns),
                            self._accel_tags)

    def __len__(self):
        return self.n

    @staticmethod
    def _static_terms(op, vwidth, is_mem, accel_tag, accel_tags,
                      on_accel, core, core_op):
        terms = []
        core_width = vwidth[core]
        vector = (core_width > 1) | _IS_VECTOR_BY_OP[core_op]
        fu_pj = _FU_PJ_BY_OP[core_op]
        scalar = ~vector
        _add_term(terms, "fu", core[scalar], fu_pj[scalar])
        _add_term(terms, "simd_fu", core[vector],
                  fu_pj[vector] * _np.maximum(core_width[vector], 1)
                  * _VECTOR_LANE_FACTOR)
        _add_constant(terms, "accel_comm",
                      core[(core_op == _OP[Opcode.SEND])
                           | (core_op == _OP[Opcode.RECV])],
                      _SEND_RECV_PJ)
        configs = _np.flatnonzero(op == _OP[Opcode.CFG])
        if configs.size:
            _add_constant(terms, "accel_config", configs, _CONFIG_PJ,
                          bool(on_accel[configs[0]]))
        for tag_id, accel in enumerate(accel_tags):
            positions = _np.flatnonzero(accel_tag == tag_id)
            tag_op = op[positions]
            cfu = tag_op == _OP[Opcode.CFU]
            op_pj = _ACCEL_OP_PJ.get(accel, 4.0)
            _add_term(terms, f"{accel}_cfu", positions[cfu],
                      op_pj + _CFU_EXTRA_OP_PJ
                      * (_np.maximum(vwidth[positions[cfu]], 1) - 1),
                      True, slot="op")
            _add_constant(terms, f"{accel}_op",
                          positions[~cfu & (tag_op != _OP[Opcode.CFG])],
                          op_pj, True, slot="op")
            _add_constant(terms, f"{accel}_net", positions,
                          _ACCEL_NETWORK_PJ.get(accel, 2.0), True,
                          slot="net")
            if accel == "trace_p":
                _add_constant(terms, "store_buffer",
                              positions[(tag_op == _OP[Opcode.ST])
                                        & (is_mem[positions] != 0)],
                              _STORE_BUFFER_PJ, True)
        return tuple(terms)

