"""Sensor-setup perturbation: centered yaw, uniform scale, translation."""

import math
from dataclasses import dataclass

import numpy as np

from .model import PointCloud, RngStream

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
    # One row per axis. Summing each row in order gives mean(axis=0)'s centre
    # bit for bit; a 1-D .sum() sums pairwise and can differ in the last bit.
    rel = np.cumsum(cloud.xyz.T, axis=1)
    center = rel[:, -1:] / len(cloud)  # BEV centroid in x, y; mean z for scaling
    np.subtract(cloud.xyz.T, center, out=rel)
    c, s = math.cos(params.rotation_rad), math.sin(params.rotation_rad)
    x, y, _ = rel
    rel[0], rel[1] = c * x - s * y, s * x + c * y
    xyz = rel * params.scale + center + params.translation_m[:, None]
    return PointCloud(np.ascontiguousarray(xyz.T), cloud.intensity.copy(), cloud.frame)
