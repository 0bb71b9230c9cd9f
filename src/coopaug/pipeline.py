"""Full augmentation pipeline plus BEV-occupancy consistency computation."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MismatchedGrids
from .gate import apply_gate, gate_responses, sample_gate
from .mixup import make_mixup_agent, nearest_pair
from .model import (EGO_FRAME, CmagConfig, CooperativeGroup, CountDistribution,
                    PointCloud, RngStream)
from .rangeview import density_augment
from .setupaug import apply_setup_aug, sample_setup_params

DEFAULT_EXTENT = (-70.4, 70.4, -40.0, 40.0)
DEFAULT_CELL_M = 0.4


@dataclass(frozen=True)
class OccupancyGrid:
    """Binary BEV grid over a rectangular extent with square cells."""

    extent: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    cell_m: float
    cells: np.ndarray  # (nx, ny) uint8

    def compatible(self, other: "OccupancyGrid") -> bool:
        return self.extent == other.extent and self.cell_m == other.cell_m


def occupancy(cloud: PointCloud, extent=DEFAULT_EXTENT,
              cell_m: float = DEFAULT_CELL_M) -> OccupancyGrid:
    """Mark each half-open BEV cell holding at least one point."""
    if cell_m <= 0:
        raise ValueError("cell size must be positive")
    x_min, x_max, y_min, y_max = extent
    nx = math.ceil((x_max - x_min) / cell_m)
    ny = math.ceil((y_max - y_min) / cell_m)
    cells = np.zeros((nx, ny), dtype=np.uint8)
    ix = np.floor((cloud.xyz[:, 0] - x_min) / cell_m).astype(np.int64)
    iy = np.floor((cloud.xyz[:, 1] - y_min) / cell_m).astype(np.int64)
    keep = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    cells[ix[keep], iy[keep]] = 1
    return OccupancyGrid(tuple(extent), cell_m, cells)


def fuse_grids(grids) -> OccupancyGrid:
    """Elementwise maximum; all grids must share extent and cell size."""
    grids = list(grids)
    if not grids:
        raise MismatchedGrids("no grids to fuse")
    first = grids[0]
    cells = first.cells.copy()
    for g in grids[1:]:
        if not first.compatible(g):
            raise MismatchedGrids("grid extent/cell mismatch")
        np.maximum(cells, g.cells, out=cells)
    return OccupancyGrid(first.extent, first.cell_m, cells)


def cfc_l1(fused_generalized: OccupancyGrid, fused_early: OccupancyGrid) -> float:
    """L1 discrepancy between the fused generalized and early-fused grids."""
    if not fused_generalized.compatible(fused_early):
        raise MismatchedGrids("grid extent/cell mismatch")
    return float(np.abs(fused_generalized.cells.astype(np.int64)
                        - fused_early.cells.astype(np.int64)).sum())


def early_fuse(group: CooperativeGroup) -> PointCloud:
    """Concatenate all agents' ego-frame clouds in agent order."""
    xyz = np.concatenate([a.cloud.xyz for a in group.agents])
    intensity = np.concatenate([a.cloud.intensity for a in group.agents])
    return PointCloud(xyz, intensity, EGO_FRAME)


def cmag(group: CooperativeGroup, phi_s: CountDistribution, phi_c: CountDistribution,
         cfg: CmagConfig, rng: RngStream) -> CooperativeGroup:
    """One augmentation step: mixup agent, point augmentation, gate application.

    Single-agent groups pass through unchanged (no pair to mix). The gate
    decision is the last draw from `rng`.
    """
    if group.n < 2:
        return group
    pair = nearest_pair(group)
    mixup = make_mixup_agent(group, cfg, rng, pair=pair)
    cloud = density_augment(mixup.cloud, mixup.agent_type, cfg, rng)
    cloud = apply_setup_aug(cloud, sample_setup_params(cfg, rng))
    mixup = replace(mixup, cloud=cloud)
    responses = gate_responses(phi_s, phi_c, group.n, cfg.gate_epsilon)
    return apply_gate(group, mixup, pair, sample_gate(responses, rng))
