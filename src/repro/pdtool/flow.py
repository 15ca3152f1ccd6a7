"""Full physical-design flow orchestration (the simulated "Innovus").

:class:`PDFlow` wires the stages together::

    netlist -> placement -> CTS -> routing -> DRV repair -> STA/power
             \\________ effort-driven optimization loop ________/

The optimization loop models what ``flowEffort`` / ``timing_effort`` buy in
a real tool: more sizing iterations.  Each iteration upsizes near-critical
cells (faster but bigger/leakier) while a final power-recovery pass at
``extreme`` effort downsizes cells with slack.  ``max_AllowedDelay`` relaxes
the timing target the optimizer chases, trading delay for area/power —
exactly the knob's role in the paper's flow.

Gate sizing is virtual: per-cell drive-scale arrays transform the compiled
netlist's electrical views without mutating the shared netlist, so one
compiled design serves thousands of flow runs (what benchmark generation
needs).
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .cts import synthesize_clock_tree
from .drv import repair_drv
from .library import CellLibrary
from .mac import MacSpec, generate_mac_netlist
from .netlist import CompiledNetlist, Netlist
from .params import ToolParameters
from .placement import place
from .power import analyze_power
from .qor import QoRReport
from .routing import route
from .sta import analyze_timing
from .variation import VariationField

#: Drive-scale step applied to critical cells per sizing iteration.
_UPSIZE_STEP = 1.5
#: Drive-scale floor/ceiling (mirrors the X1..X8 library ladder).
_MIN_SCALE, _MAX_SCALE = 0.3, 8.0
#: Fraction of near-critical cells sized per iteration.
_SIZING_FRACTION = 0.35


def _scaled_view(
    compiled: CompiledNetlist, scale: np.ndarray
) -> CompiledNetlist:
    """Return a cheap electrical view of ``compiled`` with drives scaled.

    Follows the library's drive-scaling law (see ``library._scaled``): at
    scale s, resistance /= s, cap/area/leakage grow affinely.
    """
    view = dataclasses.replace(compiled)
    view.area = compiled.area * (0.55 + 0.45 * scale)
    view.input_cap = compiled.input_cap * (0.6 + 0.4 * scale)
    view.drive_res = compiled.drive_res / scale
    view.intrinsic = compiled.intrinsic * (1.0 + 0.08 * (scale - 1.0))
    view.leakage = compiled.leakage * (0.5 + 0.5 * scale)
    view.internal_energy = compiled.internal_energy * (0.6 + 0.4 * scale)
    view.drive = compiled.drive
    return view


@dataclass
class FlowConfig:
    """Simulator-level settings (not tool parameters).

    Attributes:
        placement_seed: Seed for the placement jitter.
        base_runtime_hours: Modeled runtime of a ``standard``-effort run on
            the small design; scales with cell count and effort.
        qor_noise: Relative magnitude of the deterministic per-config QoR
            jitter that models tool run-to-run noise (placement seeds,
            heuristic tie-breaks).  The jitter is a pure function of the
            parameter configuration, so the offline-benchmark protocol
            stays reproducible.
        variation_amplitude: Magnitude of the structured
            :class:`~repro.pdtool.variation.VariationField` (systematic
            parameter-interaction variation; see that module).
    """

    placement_seed: int = 2022
    base_runtime_hours: float = 3.0
    qor_noise: float = 0.003
    variation_amplitude: float = 0.065


class PDFlow:
    """The simulated physical-design tool for one design.

    One instance owns a compiled netlist and evaluates arbitrarily many
    parameter configurations against it.

    Example:
        >>> flow = PDFlow.for_mac()
        >>> report = flow.run(ToolParameters(freq=1100.0))
        >>> report.area > 0 and report.power > 0 and report.delay > 0
        True
    """

    def __init__(
        self,
        netlist: Netlist,
        config: FlowConfig | None = None,
    ) -> None:
        """Compile ``netlist`` and prepare the flow.

        Args:
            netlist: Design to implement.
            config: Simulator settings.
        """
        self.netlist = netlist
        self.library: CellLibrary = netlist.library
        self.config = config or FlowConfig()
        self.compiled = netlist.compile()
        self._run_count = 0
        # Designs named "<family>_<variant>" share a family variation
        # component (the transferable structure of "similar designs").
        family = netlist.name.split("_")[0]
        self._variation = VariationField(
            design_seed=zlib.crc32(netlist.name.encode()),
            amplitude=self.config.variation_amplitude,
            family_seed=zlib.crc32(family.encode()),
            family_weight=0.8,
        )

    @classmethod
    def for_mac(
        cls, spec: MacSpec | None = None, config: FlowConfig | None = None
    ) -> "PDFlow":
        """Build a flow around a generated MAC design.

        Args:
            spec: MAC scale; defaults to the small benchmark MAC.
            config: Simulator settings.
        """
        from .mac import SMALL_MAC

        netlist = generate_mac_netlist(spec or SMALL_MAC)
        return cls(netlist, config)

    @property
    def run_count(self) -> int:
        """Number of :meth:`run` invocations so far (the paper's cost unit)."""
        return self._run_count

    def run(self, params: ToolParameters) -> QoRReport:
        """Execute the full flow for one parameter configuration.

        Args:
            params: Tool parameter configuration.

        Returns:
            The post-layout :class:`QoRReport`.
        """
        self._run_count += 1
        compiled = self.compiled
        n = compiled.n_cells

        placement = place(compiled, params, seed=self.config.placement_seed)
        cts = synthesize_clock_tree(
            compiled, placement, params, self.library
        )
        routing = route(compiled, placement, params)
        # Higher flow effort buys placement/routing refinement passes that
        # recover wirelength.
        wl_gain = 1.0 - 0.05 * params.flow_effort_level
        edge_length = routing.routed_edge_length * wl_gain
        routing = dataclasses.replace(
            routing, routed_edge_length=edge_length
        )

        # Timing target the optimizer chases: the clock period relaxed by
        # max_AllowedDelay (ns -> ps).
        target_ps = params.clock_period_ps + params.max_allowed_delay * 1000.0

        scale = np.ones(n)
        iterations = (
            2
            + 3 * params.flow_effort_level
            + 2 * params.timing_effort_level
        )
        view = _scaled_view(compiled, scale)
        drv = repair_drv(view, routing, params, self.library)

        # Constraint-driven sizing: the tool honours max_transition as a
        # design-wide constraint, proactively strengthening drivers whose
        # slew approaches the limit (tight limits -> stronger, hungrier
        # cells everywhere).
        slew = 3.0 * view.drive_res * drv.effective_load
        near_limit = (slew > 0.7 * params.max_transition * 1000.0) | (
            drv.effective_load > 0.6 * params.max_capacitance * 1000.0
        )
        if near_limit.any():
            scale[near_limit] = np.minimum(
                scale[near_limit] * 1.3, _MAX_SCALE
            )
            view = _scaled_view(compiled, scale)
            drv = repair_drv(view, routing, params, self.library)

        timing = analyze_timing(
            view, drv, cts, params, routing.routed_edge_length
        )

        for _ in range(iterations):
            if timing.critical_delay <= target_ps:
                break
            crit = timing.critical_cells
            if len(crit) == 0:
                break
            # Size the worst fraction of near-critical cells; push harder
            # when the gap to target is large.
            gap = timing.critical_delay / max(target_ps, 1.0) - 1.0
            fraction = min(0.9, _SIZING_FRACTION * (1.0 + 2.0 * gap))
            k = max(1, int(len(crit) * fraction))
            order = np.argsort(timing.arrival[crit])[::-1][:k]
            chosen = crit[order]
            scale[chosen] = np.minimum(
                scale[chosen] * _UPSIZE_STEP, _MAX_SCALE
            )
            if np.all(scale[chosen] >= _MAX_SCALE):
                break
            view = _scaled_view(compiled, scale)
            drv = repair_drv(view, routing, params, self.library)
            timing = analyze_timing(
                view, drv, cts, params, routing.routed_edge_length
            )

        # Area/power recovery: when the target is met with margin, the tool
        # downsizes cells off the critical path (leakage optimization runs
        # by default in modern flows; extreme effort pushes harder).
        recovery_passes = 8 if params.flow_effort == "extreme" else 5
        recovery_factor = 0.80 if params.flow_effort == "extreme" else 0.87
        # High timing effort preserves setup margin: recovery stops well
        # short of the target (better delay, less power recovered).
        recovery_stop = (0.97, 0.88)[params.timing_effort_level]
        margin = cts.skew + params.place_uncertainty
        for _ in range(recovery_passes):
            if timing.critical_delay > recovery_stop * target_ps:
                break
            # Downsize everything below the relaxed target (minus a 10%
            # guardband) — the looser the target (larger max_AllowedDelay,
            # slower clock), the more of the design is eligible and the
            # closer the final delay creeps to the target.
            cutoff = 0.9 * max(target_ps - margin, 0.0)
            non_crit = np.nonzero(
                (timing.arrival < cutoff) & ~compiled.is_seq
            )[0]
            if len(non_crit) == 0:
                break
            prev_scale = scale.copy()
            prev_state = (view, drv, timing)
            scale[non_crit] = np.maximum(
                scale[non_crit] * recovery_factor, _MIN_SCALE
            )
            view = _scaled_view(compiled, scale)
            drv = repair_drv(view, routing, params, self.library)
            timing = analyze_timing(
                view, drv, cts, params, routing.routed_edge_length
            )
            if timing.critical_delay > target_ps:
                # A recovery pass may not violate the (relaxed) target;
                # revert it and stop, like a real tool's guard.
                scale = prev_scale
                view, drv, timing = prev_state
                break

        power = analyze_power(view, drv, cts, params, self.library)

        cell_area = float(view.area.sum()) + cts.clock_tree_area
        cell_area += drv.added_area
        # Reported area is the placed footprint: cells / utilization.
        area = cell_area / params.max_density_util

        runtime = (
            self.config.base_runtime_hours
            * (n / 2500.0)
            * (1.0 + 0.6 * params.flow_effort_level)
            * (1.0 + 0.2 * params.timing_effort_level)
            * (1.0 + 0.3 * params.cong_effort_level)
        )

        jitter = self._qor_jitter(params)
        vary = self._variation.multipliers(params)
        return QoRReport(
            area=area * vary[0]
            * (1.0 + self.config.qor_noise * jitter[0]),
            power=power.total_power * vary[1]
            * (1.0 + self.config.qor_noise * jitter[1]),
            delay=timing.delay_ns * vary[2]
            * (1.0 + self.config.qor_noise * jitter[2]),
            slack_ns=timing.slack / 1000.0,
            wirelength=routing.total_wirelength,
            n_cells=n + drv.n_buffers + cts.n_clock_buffers,
            n_drv_violations=drv.n_violations,
            congestion_overflow=routing.overflow,
            runtime_hours=float(runtime),
        )

    def _qor_jitter(self, params: ToolParameters) -> np.ndarray:
        """Deterministic per-configuration noise in ``[-1, 1]^3``.

        Seeded from a stable digest of the parameter values, so the same
        configuration always reports the same QoR (offline-benchmark
        reproducibility) while distinct configurations decorrelate.
        """
        digest = zlib.crc32(
            repr(sorted(params.to_dict().items())).encode()
        )
        rng = np.random.default_rng(digest ^ self.config.placement_seed)
        return rng.uniform(-1.0, 1.0, size=3)

    def run_batch(self, configs: list[ToolParameters]) -> list[QoRReport]:
        """Evaluate several configurations (the paper's parallel licenses).

        Args:
            configs: Parameter configurations to run.

        Returns:
            One :class:`QoRReport` per configuration, in order.
        """
        return [self.run(p) for p in configs]


def effective_frequency_mhz(report: QoRReport, params: ToolParameters) -> float:
    """Highest frequency the run's critical path supports, in MHz.

    Args:
        report: Flow output.
        params: The configuration that produced it.

    Returns:
        ``1e3 / delay_ns`` guarded against degenerate delays.
    """
    if report.delay <= 0:
        return math.inf
    return 1000.0 / report.delay
