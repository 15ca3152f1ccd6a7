"""Static timing analysis (levelized, vectorized).

Computes data arrivals over the compiled netlist DAG with load- and
slew-dependent cell delays and RC wire delays from routed lengths.
Sequential cells break paths: their outputs launch at clock-to-Q, and the
worst data arrival at any sequential input (plus setup, skew, and the
asserted ``place_uncertainty``) is the design's critical delay.

The whole propagation is vectorized per topological level, so an STA pass
over a 20k-cell design costs a handful of numpy gathers per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cts import CtsResult
from .drv import SLEW_RC_FACTOR, DrvResult, WIRE_RES_PER_UM
from .netlist import CompiledNetlist
from .params import ToolParameters

#: Fraction of the driver's output slew that degrades the receiving cell's
#: delay (first-order slew propagation).
_SLEW_DELAY_FACTOR = 0.08
#: Setup time of the library flip-flop, ps.
_DFF_SETUP = 8.0


@dataclass
class TimingResult:
    """Output of one STA pass.

    Attributes:
        arrival: Per-cell output arrival time in ps (clock-to-Q for
            sequential cells).
        data_arrival: Per-cell worst input-data arrival in ps.
        critical_delay: Worst endpoint delay in ps including setup, skew
            and uncertainty margins.
        slack: ``clock_period - critical_delay`` in ps.
        critical_cells: Indices of cells on (near-)critical paths, used by
            optimization to direct gate sizing.
        cell_delay: Per-cell loaded delay in ps.
    """

    arrival: np.ndarray
    data_arrival: np.ndarray
    critical_delay: float
    slack: float
    critical_cells: np.ndarray
    cell_delay: np.ndarray

    @property
    def delay_ns(self) -> float:
        """Critical delay in ns (the paper's delay QoR unit)."""
        return self.critical_delay / 1000.0


def analyze_timing(
    compiled: CompiledNetlist,
    drv: DrvResult,
    cts: CtsResult,
    params: ToolParameters,
    edge_length: np.ndarray,
) -> TimingResult:
    """Run one full STA pass.

    Args:
        compiled: Compiled netlist.
        drv: Post-repair electrical state (loads, repair delays).
        cts: Clock-tree result (skew margin).
        params: Tool parameters (``place_rcfactor``, ``place_uncertainty``,
            clock period).
        edge_length: Routed per-fanin-edge lengths in um.

    Returns:
        A :class:`TimingResult`.
    """
    n = compiled.n_cells
    st = compiled.structure
    cell_delay = compiled.intrinsic + compiled.drive_res * drv.effective_load
    slew = SLEW_RC_FACTOR * compiled.drive_res * drv.effective_load

    # Per-pin edge delay: RC wire delay (Elmore: R_wire * (C_wire/2 + C_pin))
    # plus the driver's repair-buffer delay and slew degradation.
    wire_res = WIRE_RES_PER_UM * edge_length * params.place_rcfactor
    wire_cap_half = drv.net_wire_cap[st.driver] / 2.0
    pin_cap = compiled.input_cap[st.pin_owner]
    edge_delay = wire_res * (wire_cap_half + pin_cap)
    extra = np.zeros(len(st.driver))
    extra[st.driven] = (
        drv.repair_delay[st.pair_driver]
        + _SLEW_DELAY_FACTOR * slew[st.pair_driver]
    )
    edge_delay = edge_delay + extra

    arrival = np.zeros(n)
    seq = compiled.is_seq
    arrival[seq] = compiled.intrinsic[seq]  # clock-to-Q

    # Level 0 combinational cells see only primary inputs.
    lv0 = compiled.levels[0]
    comb0 = lv0[~seq[lv0]]
    arrival[comb0] = cell_delay[comb0]

    # A cell's data arrival is the worst of 0 and its pins' incoming
    # times: one reduceat per level over the owners' contiguous pin runs.
    # Every cell above level 0 has a driven pin, so the owners are all
    # of the level's cells.
    for pins, starts, cells in st.level_pins[1:]:
        src = np.where(st.driven[pins], arrival[st.driver[pins]], 0.0)
        incoming = src + edge_delay[pins]
        worst = np.maximum(np.maximum.reduceat(incoming, starts), 0.0)
        arrival[cells] = worst + cell_delay[cells]

    # Worst data arrival at every cell (needed for sequential endpoints,
    # whose fanins can come from any level).
    data_arrival = np.zeros(n)
    src_all = np.where(st.driven, arrival[st.driver], 0.0)
    incoming_all = src_all + edge_delay
    data_arrival[st.owners] = np.maximum(
        np.maximum.reduceat(incoming_all, st.owner_starts), 0.0
    )

    endpoints = data_arrival[seq]
    if len(endpoints):
        worst_path = float(endpoints.max())
    else:
        worst_path = float(arrival.max()) if n else 0.0

    margin = cts.skew + params.place_uncertainty + _DFF_SETUP
    critical_delay = worst_path + margin
    slack = params.clock_period_ps - critical_delay

    # Near-critical cells: those whose arrival is in the top 40% of the
    # worst path (sizing targets; mid-path cells matter too).
    threshold = 0.6 * worst_path if worst_path > 0 else 0.0
    critical_cells = np.nonzero(
        (arrival >= threshold) & ~seq
    )[0]

    return TimingResult(
        arrival=arrival,
        data_arrival=data_arrival,
        critical_delay=float(critical_delay),
        slack=float(slack),
        critical_cells=critical_cells,
        cell_delay=cell_delay,
    )
