"""Sensor-setup perturbation: centered yaw, uniform scale, translation."""

import math
from dataclasses import dataclass

import numpy as np

from .model import BLOCK_POINTS, PointCloud, RngStream

# Perturbation bounds at the scale of typical sensor calibration error:
# about 1 degree of yaw, 2% of scale and 5 cm of offset per axis.
ROTATION_RANGE_RAD = 0.0175
SCALE_RANGE = (0.98, 1.02)
TRANSLATION_BOUND_M = 0.05


@dataclass(frozen=True)
class SetupAugParams:
    rotation_rad: float            # yaw about the cloud's BEV centroid
    scale: float                   # uniform scale about the same center
    translation_m: np.ndarray      # (3,) additive offset

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "translation_m",
                           np.asarray(self.translation_m, dtype=np.float64))


def sample_setup_params(rng: RngStream) -> SetupAugParams:
    rot = float(rng.uniform(-ROTATION_RANGE_RAD, ROTATION_RANGE_RAD))
    scale = float(rng.uniform(SCALE_RANGE[0], SCALE_RANGE[1]))
    trans = rng.uniform(-TRANSLATION_BOUND_M, TRANSLATION_BOUND_M, 3)
    return SetupAugParams(rot, scale, np.asarray(trans))


def apply_setup_aug(cloud: PointCloud, params: SetupAugParams) -> PointCloud:
    """Rotate, scale, then translate the cloud about its own centroid.

    Centering on the centroid keeps the perturbation a local jitter so the
    cloud stays aligned with its labels; identity parameters are the exact
    (bitwise) identity.
    """
    if len(cloud) == 0 or (params.rotation_rad == 0.0 and params.scale == 1.0
                           and not params.translation_m.any()):
        return PointCloud(cloud.xyz.copy(), cloud.intensity.copy(), cloud.frame)
    n = len(cloud)
    xyz = np.empty_like(cloud.xyz)
    # The centre sums each axis in point order, as one cumsum over the whole
    # cloud does; a pairwise 1-D .sum() can differ in the last bit. Each block
    # is summed after the running total in row 0 of a small buffer.
    sums = np.empty((BLOCK_POINTS + 1, 3))
    sums[0] = cloud.xyz[0]
    for start in range(1, n, BLOCK_POINTS):
        block = cloud.xyz[start:start + BLOCK_POINTS]
        run = sums[:len(block) + 1]
        run[1:] = block
        np.cumsum(run, axis=0, out=run)
        sums[0] = run[-1]
    center = sums[0] / n  # BEV centroid in x, y; mean z for scaling
    c, s = math.cos(params.rotation_rad), math.sin(params.rotation_rad)
    for start in range(0, n, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        x, y, z = (cloud.xyz[block, k] - center[k] for k in range(3))
        for k, v in enumerate((c * x - s * y, s * x + c * y, z)):
            v *= params.scale
            v += center[k]
            v += params.translation_m[k]
            xyz[block, k] = v
    return PointCloud(xyz, cloud.intensity.copy(), cloud.frame)
