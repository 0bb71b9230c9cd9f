import math

import numpy as np
import pytest

from coopaug import (AGENT_TYPES, Agent, CooperativeGroup, CountDistribution,
                     PointCloud, RigidTransform, RngStream, transform_cloud,
                     validate_group)


def make_agent(aid="a0", translation=(0, 0, 0), cloud=None, is_ego=False, frame="ego"):
    if cloud is None:
        cloud = PointCloud.from_arrays(np.random.default_rng(0).uniform(-5, 5, (10, 3)),
                                       frame=frame)
    pose = RigidTransform.from_ypr(0.0, translation=translation)
    return Agent(id=aid, pose=pose, cloud=cloud, agent_type=AGENT_TYPES["A"], is_ego=is_ego)


class TestTransformCloud:
    def test_identity_is_bitwise(self):
        cloud = PointCloud.from_arrays([[1.1, -2.2, 3.3], [0.0, 0.5, -0.25]],
                                       [0.5, 1.0])
        out = transform_cloud(cloud, RigidTransform.identity(), "ego")
        assert np.array_equal(out.xyz, cloud.xyz)
        assert np.array_equal(out.intensity, cloud.intensity)
        assert out.frame == "ego"

    def test_yaw_quarter_turn(self):
        cloud = PointCloud.from_arrays([[1.0, 0.0, 0.0]])
        t = RigidTransform.from_ypr(math.pi / 2)
        out = transform_cloud(cloud, t, "ego")
        assert np.allclose(out.xyz[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_pure_translation(self):
        cloud = PointCloud.from_arrays([[1.0, 2.0, 3.0]])
        t = RigidTransform.from_ypr(0.0, translation=(10.0, 0.0, -1.0))
        out = transform_cloud(cloud, t, "ego")
        assert np.array_equal(out.xyz[0], [11.0, 2.0, 2.0])

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-10, 10, (50, 3))
        cloud = PointCloud.from_arrays(xyz)
        t = RigidTransform.from_ypr(0.7, 0.2, -0.4, translation=(3.0, -2.0, 1.0))
        out = transform_cloud(cloud, t, "ego")
        d_in = np.linalg.norm(xyz[:, None] - xyz[None, :], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        cloud = PointCloud.from_arrays(rng.uniform(-10, 10, (30, 3)))
        t = RigidTransform.from_ypr(1.2, -0.3, 0.5, translation=(1.0, 2.0, 3.0))
        back = transform_cloud(transform_cloud(cloud, t, "x"), t.inverse(), "ego")
        assert np.abs(back.xyz - cloud.xyz).max() < 1e-9

    def test_empty_cloud(self):
        out = transform_cloud(PointCloud.from_arrays(np.zeros((0, 3)), frame="a"),
                              RigidTransform.identity(), "ego")
        assert len(out) == 0


class TestRigidTransform:
    def test_from_ypr_is_valid(self):
        assert RigidTransform.from_ypr(0.3, -0.8, 1.4).is_valid()

    def test_ypr_round_trip(self):
        t = RigidTransform.from_ypr(0.9, -0.4, 0.2, translation=(1, 2, 3))
        y, p, r = t.to_ypr()
        assert (y, p, r) == pytest.approx((0.9, -0.4, 0.2))


class TestValidateGroup:
    def test_ok(self):
        g = CooperativeGroup((make_agent("e", is_ego=True), make_agent("a"),
                              make_agent("b")))
        assert validate_group(g) is None

    def test_zero_ego(self):
        for agents in ((make_agent("a"), make_agent("b")), ()):  # () is the empty group
            with pytest.raises(ValueError, match="ego count = 0"):
                CooperativeGroup(agents)

    def test_nan_point(self):
        bad = PointCloud.from_arrays([[np.nan, 0, 0]])
        with pytest.raises(ValueError, match="non-finite"):
            CooperativeGroup((make_agent("e", is_ego=True, cloud=bad),))

    def test_nan_translation(self):
        with pytest.raises(ValueError, match="invalid pose"):
            CooperativeGroup((make_agent("e", is_ego=True),
                              make_agent("a", translation=(np.nan, 0, 0))))

    def test_wrong_frame(self):
        cloud = PointCloud.from_arrays([[0, 0, 0]], frame="agent-3")
        with pytest.raises(ValueError, match="frame"):
            CooperativeGroup((make_agent("e", is_ego=True, cloud=cloud),))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            CooperativeGroup((make_agent("e", is_ego=True), make_agent("e")))


class TestCountDistribution:
    def test_sums_to_one(self):
        d = CountDistribution({1: 0.25, 2: 0.75})
        assert sum(d.pmf.values()) == pytest.approx(1.0, abs=1e-9)

    def test_off_support_is_zero(self):
        d = CountDistribution({2: 1.0})
        assert d.prob(1) == 0.0 and d.prob(99) == 0.0

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution({1: 0.5, 2: 0.6})

    def test_tv_distance(self):
        a = CountDistribution({1: 1.0})
        b = CountDistribution({2: 1.0})
        assert a.tv_distance(b) == pytest.approx(1.0)
        assert a.tv_distance(a) == 0.0


class TestRngStream:
    def test_seed_label_determinism(self):
        a = RngStream(42, "x").uniform(size=10)
        b = RngStream(42, "x").uniform(size=10)
        assert np.array_equal(a, b)

    def test_labels_are_independent(self):
        a = RngStream(42, "x").uniform(size=10)
        b = RngStream(42, "y").uniform(size=10)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic(self):
        a = RngStream(1).derive("child").uniform(size=4)
        b = RngStream(1).derive("child").uniform(size=4)
        assert np.array_equal(a, b)


class TestAgentTypes:
    def test_table_values(self):
        a = AGENT_TYPES["A"]
        assert (a.beams, a.range_m, a.fov_deg) == (64, 120.0, (-25.0, 5.0))
        assert a.range_error_m == 0.02 and a.realism == "Sim" and a.agent_class == "Vehicle"
        assert AGENT_TYPES["B"].beams == 32 and AGENT_TYPES["B"].agent_class == "Infrastructure"
        assert AGENT_TYPES["C"].fov_deg == (-25.0, 15.0) and AGENT_TYPES["C"].range_error_m == 0.03
        assert AGENT_TYPES["D"].range_error_m == 0.0  # unpublished, stored as zero
        assert AGENT_TYPES["E"].beams == 300 and AGENT_TYPES["E"].range_m == 280.0
