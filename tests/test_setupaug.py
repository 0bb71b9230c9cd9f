import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopaug import (RngStream, SetupAugParams, apply_setup_aug,
                     sample_setup_params, setupaug)
from coopaug.model import BLOCK_POINTS

from clouds import from_arrays


class TestSampleSetupParams:
    def test_degenerate_ranges_give_identity(self, monkeypatch):
        monkeypatch.setattr(setupaug, "ROTATION_RANGE_RAD", 0.0)
        monkeypatch.setattr(setupaug, "SCALE_RANGE", (1.0, 1.0))
        monkeypatch.setattr(setupaug, "TRANSLATION_BOUND_M", 0.0)
        p = sample_setup_params(RngStream(0, "s"))
        assert p.rotation_rad == 0.0 and p.scale == 1.0
        assert np.array_equal(p.translation_m, np.zeros(3))

    def test_default_ranges(self):
        for i in range(50):
            p = sample_setup_params(RngStream(i, "s"))
            assert abs(p.rotation_rad) <= 0.0175
            assert 0.98 <= p.scale <= 1.02
            assert np.abs(p.translation_m).max() <= 0.05

    def test_fixed_seed_repeats(self):
        a = sample_setup_params(RngStream(5, "s"))
        b = sample_setup_params(RngStream(5, "s"))
        assert a.rotation_rad == b.rotation_rad and a.scale == b.scale
        assert np.array_equal(a.translation_m, b.translation_m)


class TestApplySetupAug:
    def test_identity_is_bitwise(self):
        rng = np.random.default_rng(0)
        cloud = from_arrays(rng.uniform(-5, 5, (30, 3)), rng.uniform(0, 1, 30))
        out = apply_setup_aug(cloud, SetupAugParams(0.0, 1.0, np.zeros(3)))
        assert np.array_equal(out.xyz, cloud.xyz)
        assert np.array_equal(out.intensity, cloud.intensity)

    def test_single_point_is_fixed_by_rotation_and_scale(self):
        cloud = from_arrays([[2.0, 0.0, 0.0]])
        params = SetupAugParams(np.pi / 2, 2.0, np.array([0.0, 0.0, 1.0]))
        out = apply_setup_aug(cloud, params)
        assert np.allclose(out.xyz[0], [2.0, 0.0, 1.0], atol=1e-12)

    def test_scaling_about_centroid(self):
        cloud = from_arrays([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        out = apply_setup_aug(cloud, SetupAugParams(0.0, 2.0, np.zeros(3)))
        assert np.allclose(out.xyz, [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]], atol=1e-12)

    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(1)
        xyz = rng.uniform(-20, 20, (60, 3))
        cloud = from_arrays(xyz)
        out = apply_setup_aug(cloud, SetupAugParams(0.8, 1.0, np.zeros(3)))
        d_in = np.linalg.norm(xyz[:, None] - xyz[None, :], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_scale_multiplies_distances(self):
        rng = np.random.default_rng(2)
        xyz = rng.uniform(-20, 20, (60, 3))
        cloud = from_arrays(xyz)
        out = apply_setup_aug(cloud, SetupAugParams(0.0, 1.37, np.zeros(3)))
        d_in = np.linalg.norm(xyz[:, None] - xyz[None, :], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=-1)
        assert np.abs(d_out - 1.37 * d_in).max() < 1e-9

    def test_count_order_intensity_invariant(self):
        rng = np.random.default_rng(3)
        cloud = from_arrays(rng.uniform(-5, 5, (40, 3)), rng.uniform(0, 1, 40))
        out = apply_setup_aug(cloud, SetupAugParams(0.1, 1.01, np.array([0.02, -0.01, 0.0])))
        assert len(out) == len(cloud)
        assert np.array_equal(out.intensity, cloud.intensity)

    def test_empty_cloud(self):
        out = apply_setup_aug(from_arrays(np.zeros((0, 3))),
                              SetupAugParams(0.3, 1.1, np.array([1.0, 0, 0])))
        assert len(out) == 0

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            SetupAugParams(0.0, 0.0, np.zeros(3))


def setup_aug_oracle(xyz, params):
    """apply_setup_aug point by point in Python floats; the centre sums the
    rows in order, one `s += v` at a time, then divides by the count."""
    n = len(xyz)
    center = [float(v) for v in xyz[0]]
    for row in xyz[1:]:
        for k in range(3):
            center[k] += float(row[k])
    center = [v / n for v in center]
    c, s = math.cos(params.rotation_rad), math.sin(params.rotation_rad)
    t = [float(v) for v in params.translation_m]
    out = []
    for x, y, z in xyz.tolist():
        rel = (x - center[0], y - center[1], z - center[2])
        rot = (c * rel[0] - s * rel[1], s * rel[0] + c * rel[1], rel[2])
        out.append([rot[k] * params.scale + center[k] + t[k] for k in range(3)])
    return np.array(out).reshape(-1, 3)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_setup_aug_matches_sequential_oracle(data):
    """Bitwise equal to the per-point oracle on random clouds: a centre taken
    with a pairwise sum, as a 1-D `.sum()` does, fails this test."""
    n = data.draw(st.integers(1, 300))
    scale_m = data.draw(st.sampled_from([1.0, 50.0, 1e4]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    xyz = rng.normal(0.0, scale_m, (n, 3)) + rng.uniform(-1e3, 1e3, 3)
    params = sample_setup_params(RngStream(seed, "oracle"))
    cloud = from_arrays(xyz, rng.uniform(0, 1, n))
    out = apply_setup_aug(cloud, params)
    assert out.xyz.tobytes() == setup_aug_oracle(xyz, params).tobytes()
    assert out.intensity.tobytes() == cloud.intensity.tobytes()


@pytest.mark.parametrize("n", [BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1,
                               2 * BLOCK_POINTS + 5])
def test_setup_aug_matches_oracle_across_blocks(n):
    """Bitwise equal to the per-point oracle on clouds that end just before,
    on and just after a block edge, or span three blocks: a running sum that
    is not carried from block to block exactly fails this test."""
    rng = np.random.default_rng(n)
    xyz = rng.normal(0.0, 50.0, (n, 3)) + rng.uniform(-1e3, 1e3, 3)
    params = sample_setup_params(RngStream(n, "blocks"))
    cloud = from_arrays(xyz, rng.uniform(0, 1, n))
    out = apply_setup_aug(cloud, params)
    assert out.xyz.tobytes() == setup_aug_oracle(xyz, params).tobytes()
    assert out.intensity.tobytes() == cloud.intensity.tobytes()
