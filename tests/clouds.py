"""Test helper: point clouds from array-likes."""

import numpy as np

from coopaug import PointCloud


def from_arrays(xyz, intensity=None) -> PointCloud:
    """A cloud of float64 copies of the inputs, intensity 1 if none is given: the
    caller's arrays stay its own, and writable."""
    xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
    if intensity is None:
        intensity = np.ones(len(xyz))
    return PointCloud(xyz, np.array(intensity, dtype=np.float64).reshape(-1))
