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
    (bitwise) identity: the cloud itself.
    """
    if len(cloud) == 0 or (params.rotation_rad == 0.0 and params.scale == 1.0
                           and not params.translation_m.any()):
        return cloud
    n = len(cloud)
    # The centre sums each axis in point order, as a cumsum does; a pairwise 1-D
    # .sum() can differ in the last bit. The cumsum is also the output buffer,
    # which the blocks below overwrite.
    xyz = np.cumsum(cloud.xyz, axis=0)
    center = xyz[-1] / n  # BEV centroid in x, y; mean z for scaling
    c, s = math.cos(params.rotation_rad), math.sin(params.rotation_rad)
    for start in range(0, n, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        x, y, z = (cloud.xyz[block, k] - center[k] for k in range(3))
        for k, v in enumerate((c * x - s * y, s * x + c * y, z)):
            v *= params.scale
            v += center[k]
            v += params.translation_m[k]
            xyz[block, k] = v
    return PointCloud(xyz, cloud.intensity)
