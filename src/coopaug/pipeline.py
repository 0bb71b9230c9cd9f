"""Full augmentation pipeline plus BEV-occupancy consistency computation."""

import math
from dataclasses import replace

import numpy as np

from .gate import apply_gate, gate_responses, sample_gate
from .mixup import make_mixup_agent, nearest_pair
from .model import (EGO_FRAME, CmagConfig, CooperativeGroup, CountDistribution,
                    PointCloud, RngStream)
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
    ix = np.floor((cloud.xyz[:, 0] - x_min) / GRID_CELL_M).astype(np.int64)
    iy = np.floor((cloud.xyz[:, 1] - y_min) / GRID_CELL_M).astype(np.int64)
    keep = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    cells[ix[keep], iy[keep]] = 1
    return cells


def fuse_grids(grids) -> np.ndarray:
    """Elementwise maximum of occupancy grids."""
    return np.maximum.reduce(list(grids))


def cfc_l1(fused_generalized: np.ndarray, fused_early: np.ndarray) -> float:
    """L1 distance of the binary fused generalized and early-fused grids."""
    return float(np.count_nonzero(fused_generalized != fused_early))


def early_fuse(group: CooperativeGroup) -> PointCloud:
    """Concatenate all agents' ego-frame clouds in agent order."""
    xyz = np.concatenate([a.cloud.xyz for a in group.agents])
    intensity = np.concatenate([a.cloud.intensity for a in group.agents])
    return PointCloud(xyz, intensity, EGO_FRAME)


def cmag(group: CooperativeGroup, phi_s: CountDistribution, phi_c: CountDistribution,
         cfg: CmagConfig, rng: RngStream) -> CooperativeGroup:
    """One augmentation step: mixup agent, point augmentation, gate application.

    Single-agent groups pass through unchanged (no pair to mix). The gate
    decision is the last draw from `rng`. `cfg` is not read.
    """
    if group.n < 2:
        return group
    pair = nearest_pair(group)
    mixup = make_mixup_agent(group, rng, pair=pair)
    cloud = density_augment(mixup.cloud, mixup.agent_type, rng)
    cloud = apply_setup_aug(cloud, sample_setup_params(rng))
    mixup = replace(mixup, cloud=cloud)
    responses = gate_responses(phi_s, phi_c, group.n)
    return apply_gate(group, mixup, pair, sample_gate(responses, rng))
