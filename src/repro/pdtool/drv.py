"""Design-rule-violation (DRV) checking and repair model.

The DRV parameters of paper Table 1 (``max_transition``, ``max_capacitance``,
``max_fanout``, ``max_Length``) bound per-net electrical quality.  A real
tool repairs violations by buffering/splitting nets; each buffer costs area
and power but restores slew, and over-constraining (very tight limits)
floods the design with buffers — the classic DRV trade-off this model
reproduces.

All repairs are computed *virtually*: instead of mutating the netlist (too
slow inside a tuning loop), we compute per-driver violation counts, the
buffers needed, and the resulting effective loads/delays, returning flat
arrays the STA and power stages consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .library import CellLibrary
from .netlist import CompiledNetlist
from .params import ToolParameters
from .routing import RoutingResult

#: Wire capacitance per um on signal layers, in fF.
WIRE_CAP_PER_UM = 0.20
#: Wire resistance per um, in kOhm (7 nm lower-metal wires are resistive).
WIRE_RES_PER_UM = 0.010
#: Output slew is ~3x the driver RC time constant (10-90% ramp).
SLEW_RC_FACTOR = 3.0
#: Steiner sharing: a multi-sink net's tree is shorter than the sum of its
#: driver->sink paths.
_STEINER_FACTOR = 0.6


@dataclass
class DrvResult:
    """Output of DRV analysis/repair.

    Attributes:
        net_length: Per-driver routed net length in um (Steiner estimate).
        net_wire_cap: Per-driver wire capacitance in fF after repair.
        effective_load: Per-driver total load in fF after buffering (pin
            caps + wire cap, clamped by the repair).
        repair_delay: Per-driver extra delay in ps from inserted buffers.
        n_buffers: Total repair buffers inserted.
        n_violations: Nets violating at least one rule before repair.
        added_area: Buffer area in um^2.
        added_leakage: Buffer leakage in nW.
        added_cap: Buffer input capacitance added to the design in fF
            (contributes to switching power).
    """

    net_length: np.ndarray
    net_wire_cap: np.ndarray
    effective_load: np.ndarray
    repair_delay: np.ndarray
    n_buffers: int
    n_violations: int
    added_area: float
    added_leakage: float
    added_cap: float


def repair_drv(
    compiled: CompiledNetlist,
    routing: RoutingResult,
    params: ToolParameters,
    library: CellLibrary,
) -> DrvResult:
    """Check the four DRV rules and virtually repair violations.

    Args:
        compiled: Compiled netlist.
        routing: Routed edge lengths.
        params: Tool parameters carrying the DRV limits.
        library: Cell library (buffer characteristics).

    Returns:
        A :class:`DrvResult` with post-repair electrical state.
    """
    n = compiled.n_cells
    buf = library.variant("BUF", 4)

    # Per-driver routed net length: Steiner-shared sum of sink edges.
    st = compiled.structure
    net_length = np.bincount(
        st.pair_driver,
        weights=routing.routed_edge_length[st.driven],
        minlength=n,
    ).astype(float, copy=False)
    multi = compiled.fanout_count > 1
    net_length[multi] *= _STEINER_FACTOR

    pin_load = compiled.sink_load_cap()
    # place_rcfactor is the tool's RC-extraction derating knob; it scales
    # the estimated wire parasitics (both R, applied in STA, and C here).
    wire_cap = net_length * WIRE_CAP_PER_UM * params.place_rcfactor
    total_load = pin_load + wire_cap

    max_cap_ff = params.max_capacitance * 1000.0  # pF -> fF
    max_tran_ps = params.max_transition * 1000.0  # ns -> ps

    # Slew proxy: ramp time at the far sink — driver resistance plus the
    # full wire resistance into the total load.
    slew = SLEW_RC_FACTOR * (
        compiled.drive_res
        + WIRE_RES_PER_UM * net_length * params.place_rcfactor
    ) * total_load

    viol_cap = total_load > max_cap_ff
    viol_tran = slew > max_tran_ps
    viol_fanout = compiled.fanout_count > params.max_fanout
    viol_length = net_length > params.max_length
    any_viol = viol_cap | viol_tran | viol_fanout | viol_length

    # Structured repair, the way a real tool stages it:
    # 1. fanout splitting (a buffer tree over the sinks),
    # 2. length repeaters along the route,
    # 3. residual slew/cap buffers on what remains per segment.
    need_fanout = np.maximum(
        np.ceil(compiled.fanout_count / params.max_fanout) - 1, 0
    )
    need_length = np.maximum(
        np.ceil(net_length / max(params.max_length, 1e-9)) - 1, 0
    )
    segments = 1.0 + need_fanout + need_length
    seg_load = total_load / segments
    seg_res = (
        compiled.drive_res
        + WIRE_RES_PER_UM * net_length * params.place_rcfactor / segments
    )
    seg_slew = SLEW_RC_FACTOR * seg_res * seg_load
    need_tran = np.maximum(np.ceil(seg_slew / max_tran_ps) - 1, 0)
    need_cap = np.maximum(np.ceil(seg_load / max_cap_ff) - 1, 0)
    buffers = need_fanout + need_length + np.maximum(need_tran, need_cap)
    buffers = np.clip(buffers, 0, 24).astype(np.int64)
    buffers[~any_viol] = 0

    n_buffers = int(buffers.sum())
    n_violations = int(any_viol.sum())

    # Post-repair electrical state: a buffered net is split into
    # (buffers + 1) segments, so the driver sees ~1/(b+1) of the load, and
    # each buffer stage adds its own loaded delay.
    segments = buffers + 1.0
    effective_load = total_load / segments + np.where(
        buffers > 0, buf.input_cap, 0.0
    )
    stage_load = total_load / segments
    repair_delay = buffers * (
        buf.intrinsic_delay + buf.drive_res * stage_load
    )

    return DrvResult(
        net_length=net_length,
        net_wire_cap=wire_cap / segments,
        effective_load=effective_load,
        repair_delay=repair_delay,
        n_buffers=n_buffers,
        n_violations=n_violations,
        added_area=n_buffers * buf.area,
        added_leakage=n_buffers * buf.leakage,
        added_cap=n_buffers * buf.input_cap,
    )
