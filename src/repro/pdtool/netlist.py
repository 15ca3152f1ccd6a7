"""Gate-level netlist representation and compilation.

A :class:`Netlist` is a DAG of cell instances connected by nets.  Primary
inputs and the clock are modelled as virtual driver indices.  For speed the
simulator never walks the object graph during analysis; instead the netlist
is *compiled* once into flat numpy arrays (:class:`CompiledNetlist`) —
levelized fanin CSR structure, fanout counts, per-cell library attributes —
and every parameter-dependent analysis (STA, power, DRV) is vectorized over
those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .library import CellLibrary, CellType

#: Virtual driver index used for primary inputs (no driving cell).
PRIMARY_INPUT = -1


@dataclass
class Instance:
    """A placed-and-routable cell instance.

    Attributes:
        name: Unique instance name.
        cell: Library master implementing this instance.
        fanins: Indices of driving instances, one per input pin;
            ``PRIMARY_INPUT`` for pins tied to primary inputs.
    """

    name: str
    cell: CellType
    fanins: list[int] = field(default_factory=list)


@dataclass
class Netlist:
    """A gate-level netlist (single-output cells, one net per output).

    The netlist is append-only during construction; analyses operate on the
    compiled form (:meth:`compile`).

    Attributes:
        name: Design name.
        library: Cell library the instances reference.
        instances: All cell instances; index in this list is the instance id
            and also the id of the net driven by the instance.
        n_primary_inputs: Number of primary input ports.
    """

    name: str
    library: CellLibrary
    instances: list[Instance] = field(default_factory=list)
    n_primary_inputs: int = 0

    def add_input(self) -> int:
        """Register one more primary input; returns nothing useful beyond count."""
        self.n_primary_inputs += 1
        return PRIMARY_INPUT

    def add_cell(
        self, function: str, fanins: list[int], drive: int = 1,
        name: str | None = None,
    ) -> int:
        """Instantiate ``function`` at ``drive`` and return its instance id.

        Args:
            function: Library function family (e.g. ``"NAND2"``).
            fanins: Driving instance ids (or ``PRIMARY_INPUT``) per input pin.
            drive: Drive strength.
            name: Optional explicit instance name.

        Raises:
            ValueError: If the pin count does not match the master, or a
                fanin id is out of range (forward reference).
        """
        cell = self.library.variant(function, drive)
        if len(fanins) != cell.n_inputs:
            raise ValueError(
                f"{cell.name} needs {cell.n_inputs} fanins, got {len(fanins)}"
            )
        idx = len(self.instances)
        for f in fanins:
            if f != PRIMARY_INPUT and not (0 <= f < idx):
                raise ValueError(
                    f"fanin {f} of instance {idx} is not an existing instance"
                )
        self.instances.append(
            Instance(name or f"U{idx}", cell, list(fanins))
        )
        return idx

    @property
    def n_cells(self) -> int:
        """Total number of cell instances."""
        return len(self.instances)

    def cell_area(self) -> float:
        """Sum of instance footprints in um^2."""
        return float(sum(inst.cell.area for inst in self.instances))

    def counts_by_function(self) -> dict[str, int]:
        """Histogram of instances per function family."""
        counts: dict[str, int] = {}
        for inst in self.instances:
            counts[inst.cell.function] = counts.get(inst.cell.function, 0) + 1
        return counts

    def validate(self) -> None:
        """Check structural sanity (pin counts, acyclicity by construction).

        Raises:
            ValueError: On any inconsistency.
        """
        for idx, inst in enumerate(self.instances):
            if len(inst.fanins) != inst.cell.n_inputs:
                raise ValueError(f"instance {idx} has wrong pin count")
            for f in inst.fanins:
                if f != PRIMARY_INPUT and not (0 <= f < idx):
                    raise ValueError(f"instance {idx} has invalid fanin {f}")
        if self.n_primary_inputs <= 0 and self.instances:
            raise ValueError("netlist with cells must have primary inputs")

    def compile(self) -> "CompiledNetlist":
        """Flatten to numpy arrays and levelize; see :class:`CompiledNetlist`."""
        return CompiledNetlist.from_netlist(self)


class LevelPins(NamedTuple):
    """The fanin pins of one topological level, grouped by owner cell.

    Each cell's pins are one contiguous run of ``pins``, so a per-cell
    reduction over a level is one ``ufunc.reduceat(values, starts)``.

    Attributes:
        pins: Indices into ``fanin_idx`` of the level's pins, in cell order.
        starts: Offset in ``pins`` at which each owner's run begins.
        cells: The owner cell of each run (the level's cells with pins).
    """

    pins: np.ndarray
    starts: np.ndarray
    cells: np.ndarray


@dataclass(frozen=True)
class NetlistStructure:
    """Parameter-independent index arrays over the fanin pins.

    Built once per :class:`CompiledNetlist` and shared, by reference,
    with every electrical view derived from it: placement, DRV and STA
    read these instead of re-deriving them on every flow run.

    Attributes:
        pin_owner: Cell owning each fanin pin.
        driven: Mask of pins driven by a cell (not a primary input).
        driver: ``fanin_idx`` clipped to a cell id (primary-input pins
            read cell 0; mask them with ``driven``).
        pair_driver: Driver cell of each driven pin (``fanin_idx[driven]``).
        pair_owner: Owner cell of each driven pin (``pin_owner[driven]``).
        owners: Cells with at least one pin.
        owner_starts: Start of each owner's pin run (``fanin_ptr[owners]``).
        level_pins: One :class:`LevelPins` per topological level.
    """

    pin_owner: np.ndarray
    driven: np.ndarray
    driver: np.ndarray
    pair_driver: np.ndarray
    pair_owner: np.ndarray
    owners: np.ndarray
    owner_starts: np.ndarray
    level_pins: tuple[LevelPins, ...]

    @classmethod
    def build(
        cls,
        fanin_ptr: np.ndarray,
        fanin_idx: np.ndarray,
        levels: list[np.ndarray],
    ) -> "NetlistStructure":
        """Derive the index arrays from the fanin CSR and levelization."""
        n = len(fanin_ptr) - 1
        counts = np.diff(fanin_ptr)
        pin_owner = np.repeat(np.arange(n), counts)
        driven = fanin_idx >= 0
        owners = np.nonzero(counts > 0)[0]
        level_pins = []
        for cells in levels:
            cells = cells[counts[cells] > 0]
            run = counts[cells]
            starts = np.cumsum(run) - run
            # Grouped arange: each cell's pins are contiguous in fanin_idx.
            pins = (
                np.repeat(fanin_ptr[cells] - starts, run)
                + np.arange(int(run.sum()))
            )
            level_pins.append(LevelPins(pins, starts, cells))
        return cls(
            pin_owner=pin_owner,
            driven=driven,
            driver=np.clip(fanin_idx, 0, max(n - 1, 0)),
            pair_driver=fanin_idx[driven],
            pair_owner=pin_owner[driven],
            owners=owners,
            owner_starts=fanin_ptr[owners],
            level_pins=tuple(level_pins),
        )


@dataclass
class CompiledNetlist:
    """Numpy view of a :class:`Netlist`, levelized for vectorized analyses.

    Sequential cells (DFFs) are timing *startpoints* as well as endpoints:
    their data arrival starts a new clock cycle, so levelization treats them
    as level-0 sources and STA measures the longest register-to-register /
    input-to-register path.

    Attributes:
        netlist: Source netlist (kept for sizing, which mutates masters).
        fanin_ptr: CSR row pointers into ``fanin_idx`` (len ``n_cells + 1``).
        fanin_idx: Flattened fanin instance ids (``PRIMARY_INPUT`` allowed).
        fanout_count: Number of sink pins on each instance's output net.
        level: Topological level of each instance (sequential cells and
            cells fed only by primary inputs are level 0).
        levels: For each level, the array of instance ids at that level.
        is_seq: Boolean mask of sequential instances.
        structure: Parameter-independent pin index arrays; views made
            with ``dataclasses.replace`` share this one object.
        area: Per-instance area (refreshed via :meth:`refresh_cell_arrays`).
        input_cap: Per-instance single-pin input capacitance.
        drive_res: Per-instance drive resistance.
        intrinsic: Per-instance intrinsic delay.
        leakage: Per-instance leakage.
        internal_energy: Per-instance internal energy per toggle.
        drive: Per-instance drive strength.
    """

    netlist: Netlist
    fanin_ptr: np.ndarray
    fanin_idx: np.ndarray
    fanout_count: np.ndarray
    level: np.ndarray
    levels: list[np.ndarray]
    is_seq: np.ndarray
    structure: NetlistStructure
    area: np.ndarray = field(default=None)  # type: ignore[assignment]
    input_cap: np.ndarray = field(default=None)  # type: ignore[assignment]
    drive_res: np.ndarray = field(default=None)  # type: ignore[assignment]
    intrinsic: np.ndarray = field(default=None)  # type: ignore[assignment]
    leakage: np.ndarray = field(default=None)  # type: ignore[assignment]
    internal_energy: np.ndarray = field(default=None)  # type: ignore[assignment]
    drive: np.ndarray = field(default=None)  # type: ignore[assignment]

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "CompiledNetlist":
        """Build the flat arrays and levelization for ``netlist``."""
        netlist.validate()
        n = netlist.n_cells
        fanin_ptr = np.zeros(n + 1, dtype=np.int64)
        for i, inst in enumerate(netlist.instances):
            fanin_ptr[i + 1] = fanin_ptr[i] + len(inst.fanins)
        fanin_idx = np.empty(fanin_ptr[-1], dtype=np.int64)
        for i, inst in enumerate(netlist.instances):
            fanin_idx[fanin_ptr[i]:fanin_ptr[i + 1]] = inst.fanins

        is_seq = np.array(
            [inst.cell.is_sequential for inst in netlist.instances],
            dtype=bool,
        )

        # Levelize: sequential cells break timing paths, so they sit at
        # level 0 regardless of their fanin depth.
        level = np.zeros(n, dtype=np.int64)
        for i, inst in enumerate(netlist.instances):
            if is_seq[i]:
                level[i] = 0
                continue
            lv = 0
            for f in inst.fanins:
                if f != PRIMARY_INPUT:
                    lv = max(lv, level[f] + 1)
            level[i] = lv

        max_level = int(level.max()) if n else 0
        order = np.argsort(level, kind="stable")
        sorted_levels = level[order]
        bounds = np.searchsorted(sorted_levels, np.arange(max_level + 2))
        levels = [
            order[bounds[lv]:bounds[lv + 1]] for lv in range(max_level + 1)
        ]

        structure = NetlistStructure.build(fanin_ptr, fanin_idx, levels)
        compiled = cls(
            netlist=netlist,
            fanin_ptr=fanin_ptr,
            fanin_idx=fanin_idx,
            fanout_count=np.bincount(structure.pair_driver, minlength=n),
            level=level,
            levels=levels,
            is_seq=is_seq,
            structure=structure,
        )
        compiled.refresh_cell_arrays()
        return compiled

    def refresh_cell_arrays(self) -> None:
        """Re-extract per-instance library attributes (after gate sizing)."""
        insts = self.netlist.instances
        self.area = np.array([i.cell.area for i in insts])
        self.input_cap = np.array([i.cell.input_cap for i in insts])
        self.drive_res = np.array([i.cell.drive_res for i in insts])
        self.intrinsic = np.array([i.cell.intrinsic_delay for i in insts])
        self.leakage = np.array([i.cell.leakage for i in insts])
        self.internal_energy = np.array(
            [i.cell.internal_energy for i in insts]
        )
        self.drive = np.array([i.cell.drive for i in insts], dtype=np.int64)

    @property
    def n_cells(self) -> int:
        """Number of instances."""
        return len(self.netlist.instances)

    def sink_load_cap(self) -> np.ndarray:
        """Total sink-pin capacitance on each instance's output net (fF)."""
        st = self.structure
        # Each fanin pin of cell j adds cell j's pin cap to the driver's
        # net.  bincount sums in pin order, so the result is exact; it
        # returns int64 when there are no pins, hence the cast.
        return np.bincount(
            st.pair_driver,
            weights=self.input_cap[st.pair_owner],
            minlength=self.n_cells,
        ).astype(float, copy=False)
