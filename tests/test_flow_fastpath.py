"""Exact-equality lane for the simulated flow's segment reductions.

STA, DRV and the sink loads read parameter-independent pin index arrays
(:class:`~repro.pdtool.netlist.NetlistStructure`) built once per compiled
netlist, and reduce per cell with ``np.maximum.reduceat`` and
``np.bincount`` instead of scattering with ``np.maximum.at`` /
``np.add.at``.  Both forms are exact — max is order-free, and
``bincount`` sums in the same pin order as ``add.at`` — so this lane
holds the new code to the retained scatter implementations *bit for
bit* (``np.array_equal``, never ``allclose``): per stage over random tool
parameters and sized views, on hand-built edge netlists, and end to end
on the rows a golden table is built from.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.pdtool.flow as flow_module
from repro.bench.generate import (
    design_base_params,
    evaluate_configs,
    get_flow,
)
from repro.bench.spaces import BENCHMARK_DESIGN, SPACES
from repro.pdtool.cts import CtsResult, synthesize_clock_tree
from repro.pdtool.drv import (
    _STEINER_FACTOR,
    SLEW_RC_FACTOR,
    WIRE_CAP_PER_UM,
    WIRE_RES_PER_UM,
    DrvResult,
    repair_drv,
)
from repro.pdtool.flow import PDFlow, _scaled_view
from repro.pdtool.library import CellLibrary, CellType
from repro.pdtool.netlist import (
    PRIMARY_INPUT,
    CompiledNetlist,
    Instance,
    Netlist,
    NetlistStructure,
)
from repro.pdtool.params import (
    CONG_EFFORT_LEVELS,
    FLOW_EFFORT_LEVELS,
    TIMING_EFFORT_LEVELS,
    ToolParameters,
)
from repro.pdtool.placement import place
from repro.pdtool.routing import RoutingResult, route
from repro.pdtool.sta import (
    _DFF_SETUP,
    _SLEW_DELAY_FACTOR,
    TimingResult,
    analyze_timing,
)
from repro.space.sampling import latin_hypercube

pytestmark = pytest.mark.fastpath

DESIGNS = ("mac_small", "mac_large", "fabric_small", "cpu_small")


# ---------------------------------------------------------------------------
# Reference implementations: the scatter forms the flow used before the
# structure record, kept here verbatim as the equality oracle.
# ---------------------------------------------------------------------------


def reference_sink_load_cap(compiled: CompiledNetlist) -> np.ndarray:
    load = np.zeros(compiled.n_cells)
    valid = compiled.fanin_idx >= 0
    pin_owner = np.repeat(
        np.arange(compiled.n_cells), np.diff(compiled.fanin_ptr)
    )
    np.add.at(
        load,
        compiled.fanin_idx[valid],
        compiled.input_cap[pin_owner[valid]],
    )
    return load


def reference_repair_drv(
    compiled: CompiledNetlist,
    routing: RoutingResult,
    params: ToolParameters,
    library: CellLibrary,
) -> DrvResult:
    n = compiled.n_cells
    buf = library.variant("BUF", 4)

    net_length = np.zeros(n)
    drivers = compiled.fanin_idx
    valid = drivers >= 0
    np.add.at(net_length, drivers[valid], routing.routed_edge_length[valid])
    multi = compiled.fanout_count > 1
    net_length[multi] *= _STEINER_FACTOR

    pin_load = reference_sink_load_cap(compiled)
    wire_cap = net_length * WIRE_CAP_PER_UM * params.place_rcfactor
    total_load = pin_load + wire_cap

    max_cap_ff = params.max_capacitance * 1000.0
    max_tran_ps = params.max_transition * 1000.0

    slew = SLEW_RC_FACTOR * (
        compiled.drive_res
        + WIRE_RES_PER_UM * net_length * params.place_rcfactor
    ) * total_load

    viol_cap = total_load > max_cap_ff
    viol_tran = slew > max_tran_ps
    viol_fanout = compiled.fanout_count > params.max_fanout
    viol_length = net_length > params.max_length
    any_viol = viol_cap | viol_tran | viol_fanout | viol_length

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


def reference_level_pins(
    compiled: CompiledNetlist,
) -> list[tuple[np.ndarray, np.ndarray]]:
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for cells in compiled.levels:
        if len(cells) == 0:
            out.append((np.empty(0, np.int64), np.empty(0, np.int64)))
            continue
        counts = (
            compiled.fanin_ptr[cells + 1] - compiled.fanin_ptr[cells]
        )
        total = int(counts.sum())
        if total == 0:
            out.append((np.empty(0, np.int64), np.empty(0, np.int64)))
            continue
        starts = np.repeat(compiled.fanin_ptr[cells], counts)
        within = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        pin_idx = starts + within
        owners = np.repeat(cells, counts)
        out.append((pin_idx, owners))
    return out


def reference_analyze_timing(
    compiled: CompiledNetlist,
    drv: DrvResult,
    cts: CtsResult,
    params: ToolParameters,
    edge_length: np.ndarray,
) -> TimingResult:
    n = compiled.n_cells
    cell_delay = compiled.intrinsic + compiled.drive_res * drv.effective_load
    slew = SLEW_RC_FACTOR * compiled.drive_res * drv.effective_load

    pin_owner = np.repeat(np.arange(n), np.diff(compiled.fanin_ptr))
    drivers = compiled.fanin_idx
    valid = drivers >= 0
    wire_res = WIRE_RES_PER_UM * edge_length * params.place_rcfactor
    wire_cap_half = drv.net_wire_cap[np.clip(drivers, 0, n - 1)] / 2.0
    pin_cap = compiled.input_cap[pin_owner]
    edge_delay = wire_res * (wire_cap_half + pin_cap)
    extra = np.zeros(len(drivers))
    extra[valid] = (
        drv.repair_delay[drivers[valid]]
        + _SLEW_DELAY_FACTOR * slew[drivers[valid]]
    )
    edge_delay = edge_delay + extra

    arrival = np.zeros(n)
    seq = compiled.is_seq
    arrival[seq] = compiled.intrinsic[seq]

    lv0 = compiled.levels[0]
    comb0 = lv0[~seq[lv0]]
    arrival[comb0] = cell_delay[comb0]

    level_pins = reference_level_pins(compiled)
    for lv in range(1, len(compiled.levels)):
        pin_idx, owners = level_pins[lv]
        if len(pin_idx) == 0:
            continue
        drv_ids = drivers[pin_idx]
        src = np.where(drv_ids >= 0, arrival[np.clip(drv_ids, 0, n - 1)], 0.0)
        incoming = src + edge_delay[pin_idx]
        data_arr = np.zeros(n)
        np.maximum.at(data_arr, owners, incoming)
        cells = compiled.levels[lv]
        arrival[cells] = data_arr[cells] + cell_delay[cells]

    data_arrival = np.zeros(n)
    src_all = np.where(valid, arrival[np.clip(drivers, 0, n - 1)], 0.0)
    incoming_all = src_all + edge_delay
    np.maximum.at(data_arrival, pin_owner, incoming_all)

    endpoints = data_arrival[seq]
    if len(endpoints):
        worst_path = float(endpoints.max())
    else:
        worst_path = float(arrival.max()) if n else 0.0

    margin = cts.skew + params.place_uncertainty + _DFF_SETUP
    critical_delay = worst_path + margin
    slack = params.clock_period_ps - critical_delay

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


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def random_params(rng: np.random.Generator) -> ToolParameters:
    """Tool parameters drawn across (and past) the benchmark ranges."""
    return ToolParameters(
        freq=float(rng.uniform(300.0, 1600.0)),
        place_rcfactor=float(rng.uniform(0.8, 1.5)),
        place_uncertainty=float(rng.uniform(0.0, 200.0)),
        flow_effort=str(rng.choice(FLOW_EFFORT_LEVELS)),
        timing_effort=str(rng.choice(TIMING_EFFORT_LEVELS)),
        clock_power_driven=bool(rng.integers(2)),
        uniform_density=bool(rng.integers(2)),
        cong_effort=str(rng.choice(CONG_EFFORT_LEVELS)),
        max_density_place=float(rng.uniform(0.4, 1.0)),
        max_length=float(rng.uniform(20.0, 500.0)),
        max_density_util=float(rng.uniform(0.4, 0.95)),
        max_transition=float(rng.uniform(0.03, 0.5)),
        max_capacitance=float(rng.uniform(0.01, 0.3)),
        max_fanout=int(rng.integers(2, 64)),
        max_allowed_delay=float(rng.uniform(0.0, 0.5)),
    )


def assert_fields_equal(new, ref) -> None:
    """Every dataclass field bit-equal (arrays by ``np.array_equal``)."""
    for f in dataclasses.fields(ref):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def assert_stages_equal(
    compiled: CompiledNetlist,
    params: ToolParameters,
    library: CellLibrary,
    scale: np.ndarray,
) -> None:
    """DRV, sink loads and STA of one sized view equal the references."""
    placement = place(compiled, params)
    cts = synthesize_clock_tree(compiled, placement, params, library)
    routing = route(compiled, placement, params)
    view = _scaled_view(compiled, scale)

    assert np.array_equal(
        view.sink_load_cap(), reference_sink_load_cap(view)
    )
    drv = repair_drv(view, routing, params, library)
    assert_fields_equal(
        drv, reference_repair_drv(view, routing, params, library)
    )
    edges = routing.routed_edge_length
    assert_fields_equal(
        analyze_timing(view, drv, cts, params, edges),
        reference_analyze_timing(view, drv, cts, params, edges),
    )


# ---------------------------------------------------------------------------
# Per-stage equality on the benchmark designs.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", DESIGNS)
def test_stages_match_reference(design):
    flow = get_flow(design)
    compiled = flow.compiled
    rng = np.random.default_rng(sum(map(ord, design)))
    for _ in range(20):
        params = random_params(rng)
        scale = rng.uniform(0.3, 8.0, size=compiled.n_cells)
        assert_stages_equal(compiled, params, flow.library, scale)


@pytest.mark.parametrize("design", DESIGNS)
def test_structure_matches_scatter_derivations(design):
    compiled = get_flow(design).compiled
    st = compiled.structure
    n = compiled.n_cells
    drivers = compiled.fanin_idx
    valid = drivers >= 0
    pin_owner = np.repeat(np.arange(n), np.diff(compiled.fanin_ptr))
    assert np.array_equal(st.pin_owner, pin_owner)
    assert np.array_equal(st.driven, valid)
    assert np.array_equal(st.driver, np.clip(drivers, 0, n - 1))
    assert np.array_equal(st.pair_driver, drivers[valid])
    assert np.array_equal(st.pair_owner, pin_owner[valid])
    reference = reference_level_pins(compiled)
    for (pins, starts, cells), (ref_pins, ref_owners) in zip(
        st.level_pins, reference, strict=True
    ):
        assert np.array_equal(pins, ref_pins)
        assert np.array_equal(pin_owner[pins], ref_owners)
        assert np.array_equal(pin_owner[pins[starts]], cells)
        assert np.array_equal(np.unique(ref_owners), cells)


# ---------------------------------------------------------------------------
# Hand-built edge netlists.
# ---------------------------------------------------------------------------

#: A zero-input tie cell (the library has none; edge netlists need one).
TIE = CellType("TIE_X1", "TIE", 1, 0, 0.15, 0.0, 1.8, 3.0, 0.4, 0.1)


def _no_sequential(library: CellLibrary) -> Netlist:
    nl = Netlist("edge_comb", library)
    nl.add_input()
    a = nl.add_cell("INV", [PRIMARY_INPUT])
    b = nl.add_cell("NAND2", [a, PRIMARY_INPUT])
    c = nl.add_cell("NOR2", [a, b])
    nl.add_cell("XOR2", [c, c])
    return nl


def _only_primary_fed(library: CellLibrary) -> Netlist:
    nl = Netlist("edge_pi", library)
    nl.add_input()
    nl.add_cell("NAND2", [PRIMARY_INPUT, PRIMARY_INPUT])
    nl.add_cell("INV", [PRIMARY_INPUT])
    nl.add_cell("DFF", [PRIMARY_INPUT])
    return nl


def _zero_fanin_cell(library: CellLibrary) -> Netlist:
    nl = Netlist("edge_tie", library)
    nl.add_input()
    nl.instances.append(Instance("T0", TIE, []))
    a = nl.add_cell("NAND2", [0, PRIMARY_INPUT])
    b = nl.add_cell("DFF", [a])
    nl.add_cell("AND2", [b, 0])
    return nl


def _no_pins(library: CellLibrary) -> Netlist:
    nl = Netlist("edge_nopins", library)
    nl.add_input()
    nl.instances.append(Instance("T0", TIE, []))
    nl.instances.append(Instance("T1", TIE, []))
    return nl


EDGE_NETLISTS = {
    "no_sequential": _no_sequential,
    "only_primary_fed": _only_primary_fed,
    "zero_fanin_cell": _zero_fanin_cell,
    "no_pins": _no_pins,
}


@pytest.mark.parametrize("build", EDGE_NETLISTS.values(), ids=EDGE_NETLISTS)
def test_edge_netlists_match_reference(build, library):
    compiled = build(library).compile()
    assert compiled.sink_load_cap().dtype == np.float64
    rng = np.random.default_rng(7)
    for _ in range(5):
        params = random_params(rng)
        scale = rng.uniform(0.3, 8.0, size=compiled.n_cells)
        assert_stages_equal(compiled, params, library, scale)


# ---------------------------------------------------------------------------
# End to end: golden-table rows.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPACES))
def test_evaluate_configs_rows_match_reference(name, monkeypatch):
    design = BENCHMARK_DESIGN[name]
    flow = get_flow(design)
    configs = latin_hypercube(SPACES[name](), 12, seed=5)
    base = design_base_params(design)
    rows = evaluate_configs(flow, configs, base)
    monkeypatch.setattr(flow_module, "repair_drv", reference_repair_drv)
    monkeypatch.setattr(
        flow_module, "analyze_timing", reference_analyze_timing
    )
    reference = evaluate_configs(flow, configs, base)
    assert rows.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# The structure record is built once and shared by every view.
# ---------------------------------------------------------------------------


def test_structure_built_once_and_shared(tiny_netlist, monkeypatch):
    built: list[NetlistStructure] = []
    build = NetlistStructure.build.__func__

    def counting_build(cls, *args, **kwargs):
        record = build(cls, *args, **kwargs)
        built.append(record)
        return record

    views: list[CompiledNetlist] = []

    def recording_view(compiled, scale):
        view = _scaled_view(compiled, scale)
        views.append(view)
        return view

    monkeypatch.setattr(
        NetlistStructure, "build", classmethod(counting_build)
    )
    monkeypatch.setattr(flow_module, "_scaled_view", recording_view)

    flow = PDFlow(tiny_netlist)
    rng = np.random.default_rng(3)
    for _ in range(5):
        flow.run(random_params(rng))

    assert len(built) == 1
    assert flow.compiled.structure is built[0]
    assert len(views) >= 5
    assert all(view.structure is built[0] for view in views)
