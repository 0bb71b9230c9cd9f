"""Full augmentation pipeline plus BEV-occupancy consistency computation."""

import math
from dataclasses import replace

import numpy as np

from .gate import apply_gate, gate_responses, sample_gate
from .mixup import make_mixup_agent, nearest_pair
from .model import (BLOCK_POINTS, CmagConfig, CooperativeGroup,
                    CountDistribution, PointCloud, RngStream)
from .rangeview import density_augment
from .setupaug import apply_setup_aug, sample_setup_params

# The one BEV occupancy grid, around the ego: x_min, x_max, y_min, y_max in
# meters, and its square cell size; 352 x 200 cells.
GRID_EXTENT = (-70.4, 70.4, -40.0, 40.0)
GRID_CELL_M = 0.4


def occupancy(cloud: PointCloud) -> np.ndarray:
    """Read-only (nx, ny) uint8 grid over GRID_EXTENT marking each half-open cell
    with a point. It is kept on the cloud, whose arrays cannot change, and a
    later call returns the same grid."""
    if cloud.grid is None:
        grid = _bin(cloud)
        grid.flags.writeable = False
        object.__setattr__(cloud, "grid", grid)
    return cloud.grid


def _bin(cloud: PointCloud) -> np.ndarray:
    """The cloud's occupancy grid, binned a block of points at a time."""
    x_min, x_max, y_min, y_max = GRID_EXTENT
    nx = math.ceil((x_max - x_min) / GRID_CELL_M)
    ny = math.ceil((y_max - y_min) / GRID_CELL_M)
    cells = np.zeros((nx, ny), dtype=np.uint8)
    for start in range(0, len(cloud), BLOCK_POINTS):
        x, y = cloud.xyz[start:start + BLOCK_POINTS, :2].T
        ix, iy = (x - x_min) / GRID_CELL_M, (y - y_min) / GRID_CELL_M
        # floor(v) >= 0 and floor(v) < n hold exactly when v >= 0 and v < n do,
        # and on the kept, non-negative values truncation is floor.
        kept = np.flatnonzero((ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny))
        flat = ix.take(kept).astype(np.int64) * ny + iy.take(kept).astype(np.int64)
        cells.reshape(-1)[flat] = 1
    return cells


def fuse_grids(grids) -> np.ndarray:
    """Elementwise maximum of occupancy grids."""
    return np.maximum.reduce(list(grids))


def cfc_l1(fused_generalized: np.ndarray, fused_early: np.ndarray) -> float:
    """L1 distance of the binary fused generalized and early-fused grids."""
    return float(np.count_nonzero(fused_generalized != fused_early))


def cfc_score(group: CooperativeGroup, generalized: CooperativeGroup) -> float:
    """CFC L1 of the augmented group `generalized` against the early fusion of
    its source `group`.

    The early-fused grid is the fusion of the per-agent grids, as each grid
    marks the cells of the same points. Each cloud keeps its grid, so an output
    agent holding an input agent's cloud is not binned again.
    """
    return cfc_l1(fuse_grids([occupancy(a.cloud) for a in generalized.agents]),
                  fuse_grids([occupancy(a.cloud) for a in group.agents]))


def early_fuse(group: CooperativeGroup) -> PointCloud:
    """Concatenate all agents' ego-frame clouds in agent order. Its grid is the
    fusion of theirs: a cell holds a point of the concatenation exactly when it
    holds a point of some part."""
    xyz = np.concatenate([a.cloud.xyz for a in group.agents])
    intensity = np.concatenate([a.cloud.intensity for a in group.agents])
    fused = PointCloud(xyz, intensity)
    grid = fuse_grids([occupancy(a.cloud) for a in group.agents])
    grid.flags.writeable = False
    object.__setattr__(fused, "grid", grid)
    return fused


def cmag(group: CooperativeGroup, phi_s: CountDistribution, phi_c: CountDistribution,
         cfg: CmagConfig, rng: RngStream) -> CooperativeGroup:
    """One augmentation step: mixup agent, point augmentation, gate application.

    A group with no pair to mix (`nearest_pair` gives None) passes through
    unchanged. The gate decision is the last draw from `rng`. `cfg` is not read.
    """
    pair = nearest_pair(group)
    if pair is None:
        return group
    mixup = make_mixup_agent(group, rng, pair=pair)
    cloud = density_augment(mixup.cloud, mixup.agent_type, rng)
    cloud = apply_setup_aug(cloud, sample_setup_params(rng))
    mixup = replace(mixup, cloud=cloud)
    responses = gate_responses(phi_s, phi_c, group.n)
    return apply_gate(group, mixup, pair, sample_gate(responses, rng))
