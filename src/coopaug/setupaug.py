"""Sensor-setup perturbation: centered yaw, uniform scale, translation."""

import math
from dataclasses import dataclass

import numpy as np

from .model import CmagConfig, PointCloud, RngStream


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


def sample_setup_params(cfg: CmagConfig, rng: RngStream) -> SetupAugParams:
    rot = float(rng.uniform(-cfg.pa_rotation_range_rad, cfg.pa_rotation_range_rad))
    scale = float(rng.uniform(cfg.pa_scale_range[0], cfg.pa_scale_range[1]))
    trans = rng.uniform(-cfg.pa_translation_bound_m, cfg.pa_translation_bound_m, 3)
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
    center = cloud.xyz.mean(axis=0)  # BEV centroid in x, y; mean z for scaling
    c, s = math.cos(params.rotation_rad), math.sin(params.rotation_rad)
    rel = cloud.xyz - center
    rot = np.empty_like(rel)
    rot[:, 0] = c * rel[:, 0] - s * rel[:, 1]
    rot[:, 1] = s * rel[:, 0] + c * rel[:, 1]
    rot[:, 2] = rel[:, 2]
    xyz = rot * params.scale + center + params.translation_m
    return PointCloud(xyz, cloud.intensity.copy(), cloud.frame)
