"""Placement model: die sizing, cell locations, wirelength, bin densities.

A real placer solves a large optimization; our simulator needs placement to
(1) respond to the placement-related tool parameters in physically plausible
directions, and (2) expose per-edge wire lengths and per-bin densities to
downstream routing/STA/power.  We use a deterministic grid placement:

- Die area = total cell area / ``max_density_util`` (target utilization).
- Cells are placed in instance order along a Morton (Z-order) space-filling
  curve.  The MAC generator emits connected logic with nearby instance ids,
  and the Morton curve keeps any run of k sequential ids inside a
  ~sqrt(k) x sqrt(k) region — the 2-D clustering a real placer produces; a
  seeded jitter models placer noise.
- ``max_density_place`` caps local bin density during "global placement":
  lower caps force spreading, inflating the effective row pitch (longer
  wires) while easing congestion.
- ``uniform_density`` evens out bin fill (less variance, slightly longer
  average wires), mirroring Innovus' even-cell-distribution switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import CompiledNetlist
from .params import ToolParameters


@dataclass
class PlacementResult:
    """Output of the placement stage.

    Attributes:
        xy: ``(n_cells, 2)`` cell coordinates in um.
        die_width: Die width in um.
        die_height: Die height in um.
        edge_length: Manhattan length in um of each fanin edge (same order
            as ``CompiledNetlist.fanin_idx``; primary-input edges get a
            boundary-distance length).
        bin_density: Flattened per-bin placement densities.
        density_overflow: Mean excess of bin density over
            ``max_density_place`` (0 when every bin respects the cap).
        utilization: Achieved core utilization.
    """

    xy: np.ndarray
    die_width: float
    die_height: float
    edge_length: np.ndarray
    bin_density: np.ndarray
    density_overflow: float
    utilization: float

    @property
    def total_wirelength(self) -> float:
        """Sum of edge lengths in um (pre-routing estimate)."""
        return float(self.edge_length.sum())


def _morton_decode(index: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """De-interleave Morton codes into (x, y) grid coordinates.

    Args:
        index: Z-curve site indices (int64).
        bits: Bits per coordinate (grid is ``2**bits`` wide).

    Returns:
        ``(x, y)`` integer coordinate arrays.
    """
    x = np.zeros_like(index)
    y = np.zeros_like(index)
    for b in range(bits):
        x |= ((index >> (2 * b)) & 1) << b
        y |= ((index >> (2 * b + 1)) & 1) << b
    return x, y


def place(
    compiled: CompiledNetlist,
    params: ToolParameters,
    seed: int = 2022,
) -> PlacementResult:
    """Run the placement model.

    Args:
        compiled: Compiled netlist to place.
        params: Tool parameters (utilization, density caps, spreading).
        seed: Seed for the deterministic placer jitter.

    Returns:
        A :class:`PlacementResult` with coordinates, edge lengths and
        density statistics.
    """
    n = compiled.n_cells
    rng = np.random.default_rng(seed)

    total_area = float(compiled.area.sum())
    utilization = params.max_density_util
    die_area = total_area / utilization
    die_width = die_height = float(np.sqrt(die_area))

    # Effective spreading: a tight placement cap or uniform-density mode
    # pushes cells apart, which manifests as a larger effective pitch.
    spread = 1.0
    if params.max_density_place < utilization:
        # The requested local cap is tighter than the average fill: the
        # placer must spread to honour it, growing wirelength.
        spread += 0.6 * (utilization / params.max_density_place - 1.0)
    if params.uniform_density:
        spread += 0.05
    pitch_scale = np.sqrt(spread)

    # Morton (Z-order) scan over a 2^m x 2^m grid of cell sites: run of k
    # sequential instance ids lands in an O(sqrt(k))-wide square.
    m = max(1, int(np.ceil(np.log2(max(n, 2)) / 2.0)))
    grid = 2 ** m
    # Spread the n ids over all grid^2 z-curve sites (monotone, collision
    # free since grid^2 >= n) so the whole die is used evenly.
    site = (np.arange(n, dtype=np.int64) * grid * grid) // max(n, 1)
    col, row = _morton_decode(site, m)
    cols = rows = grid

    cell_pitch_x = die_width / cols
    cell_pitch_y = die_height / max(rows, 1)
    jitter_mag = 0.35 if not params.uniform_density else 0.15
    jx = rng.uniform(-jitter_mag, jitter_mag, size=n) * cell_pitch_x
    jy = rng.uniform(-jitter_mag, jitter_mag, size=n) * cell_pitch_y
    x = (col + 0.5) * cell_pitch_x + jx
    y = (row + 0.5) * cell_pitch_y + jy
    xy = np.column_stack([x, y]) * pitch_scale

    # Per-edge Manhattan lengths.
    st = compiled.structure
    valid = st.driven
    edge_length = np.empty(len(valid))
    src = xy[st.driver]
    dst = xy[st.pin_owner]
    manhattan = np.abs(src - dst).sum(axis=1)
    edge_length[valid] = manhattan[valid]
    # Primary-input edges: distance from the nearest die edge (IO ring).
    io_dist = np.minimum.reduce([
        dst[:, 0], dst[:, 1],
        die_width * pitch_scale - dst[:, 0],
        die_height * pitch_scale - dst[:, 1],
    ])
    edge_length[~valid] = np.maximum(io_dist[~valid], 0.0)

    # Bin densities on a 16x16 (or smaller) grid.
    nbins = min(16, max(2, int(np.sqrt(n) / 4)))
    width_eff = die_width * pitch_scale
    height_eff = die_height * pitch_scale
    bx = np.clip((xy[:, 0] / width_eff * nbins).astype(int), 0, nbins - 1)
    by = np.clip((xy[:, 1] / height_eff * nbins).astype(int), 0, nbins - 1)
    flat = bx * nbins + by
    bin_area = np.zeros(nbins * nbins)
    np.add.at(bin_area, flat, compiled.area)
    bin_capacity = (width_eff * height_eff) / (nbins * nbins)
    bin_density = bin_area / bin_capacity

    if params.uniform_density:
        # Even-distribution mode pulls densities toward their mean.
        mean = bin_density.mean()
        bin_density = mean + 0.4 * (bin_density - mean)

    excess = np.maximum(bin_density - params.max_density_place, 0.0)
    density_overflow = float(excess.mean())

    achieved_util = total_area / (width_eff * height_eff)
    return PlacementResult(
        xy=xy,
        die_width=width_eff,
        die_height=height_eff,
        edge_length=edge_length,
        bin_density=bin_density,
        density_overflow=density_overflow,
        utilization=float(achieved_util),
    )
