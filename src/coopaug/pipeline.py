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
    """(nx, ny) uint8 grid over GRID_EXTENT marking each half-open cell with a point."""
    x_min, x_max, y_min, y_max = GRID_EXTENT
    nx = math.ceil((x_max - x_min) / GRID_CELL_M)
    ny = math.ceil((y_max - y_min) / GRID_CELL_M)
    cells = np.zeros((nx, ny), dtype=np.uint8)
    for start in range(0, len(cloud), BLOCK_POINTS):
        x, y = cloud.xyz[start:start + BLOCK_POINTS, :2].T
        ix, iy = (x - x_min) / GRID_CELL_M, (y - y_min) / GRID_CELL_M
        # bound-check as floats: a far point's cell index need not fit an int64.
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
    marks the cells of the same points. Each input cloud is binned once, and an
    output agent holding the same cloud object (by `id`) reuses its grid, which
    is sound because a cloud's arrays are read-only: it cannot change.
    """
    grids = {id(a.cloud): occupancy(a.cloud) for a in group.agents}
    fused = fuse_grids([grids[id(a.cloud)] if id(a.cloud) in grids else occupancy(a.cloud)
                        for a in generalized.agents])
    return cfc_l1(fused, fuse_grids(grids.values()))


def early_fuse(group: CooperativeGroup) -> PointCloud:
    """Concatenate all agents' ego-frame clouds in agent order."""
    xyz = np.concatenate([a.cloud.xyz for a in group.agents])
    intensity = np.concatenate([a.cloud.intensity for a in group.agents])
    return PointCloud(xyz, intensity)


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
