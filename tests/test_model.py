import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coopaug import (AGENT_TYPES, Agent, AgentType, CooperativeGroup, CountDistribution,
                     PointCloud, RigidTransform, RngStream, Scene, sim, simulate_lidar,
                     transform_cloud, validate_group)
from coopaug.kernels import ray_cast
from coopaug.model import BLOCK_POINTS, MAX_BEAMS, WORLD_BOUND_M

from clouds import from_arrays

# The farthest a made cloud or pose reaches on an axis.
LIMIT = 10 * WORLD_BOUND_M


def make_agent(aid="a0", translation=(0, 0, 0), cloud=None, is_ego=False):
    if cloud is None:
        cloud = from_arrays(np.random.default_rng(0).uniform(-5, 5, (10, 3)))
    pose = RigidTransform.from_ypr(0.0, translation=translation)
    return Agent(id=aid, pose=pose, cloud=cloud, agent_type=AGENT_TYPES["A"], is_ego=is_ego)


class TestTransformCloud:
    def test_identity_is_bitwise(self):
        cloud = from_arrays([[1.1, -2.2, 3.3], [0.0, 0.5, -0.25]],
                            [0.5, 1.0])
        out = transform_cloud(cloud, RigidTransform.identity())
        assert np.array_equal(out.xyz, cloud.xyz)
        assert np.array_equal(out.intensity, cloud.intensity)

    def test_yaw_quarter_turn(self):
        cloud = from_arrays([[1.0, 0.0, 0.0]])
        t = RigidTransform.from_ypr(math.pi / 2)
        out = transform_cloud(cloud, t)
        assert np.allclose(out.xyz[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_pure_translation(self):
        cloud = from_arrays([[1.0, 2.0, 3.0]])
        t = RigidTransform.from_ypr(0.0, translation=(10.0, 0.0, -1.0))
        out = transform_cloud(cloud, t)
        assert np.array_equal(out.xyz[0], [11.0, 2.0, 2.0])

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-10, 10, (50, 3))
        cloud = from_arrays(xyz)
        t = RigidTransform.from_ypr(0.7, 0.2, -0.4, translation=(3.0, -2.0, 1.0))
        out = transform_cloud(cloud, t)
        d_in = np.linalg.norm(xyz[:, None] - xyz[None, :], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(8)
        cloud = from_arrays(rng.uniform(-10, 10, (30, 3)))
        t = RigidTransform.from_ypr(1.2, -0.3, 0.5, translation=(1.0, 2.0, 3.0))
        back = transform_cloud(transform_cloud(cloud, t), t.inverse())
        assert np.abs(back.xyz - cloud.xyz).max() < 1e-9

    def test_empty_cloud(self):
        out = transform_cloud(from_arrays(np.zeros((0, 3))),
                              RigidTransform.identity())
        assert len(out) == 0


def apply_ref(r, p, t=None):
    """r @ p for one point in Python floats, each row in the plain order
    (r[i][0] * p[0] + r[i][1] * p[1]) + r[i][2] * p[2], then t[i] added last."""
    out = [(r[i][0] * p[0] + r[i][1] * p[1]) + r[i][2] * p[2] for i in range(3)]
    return out if t is None else [out[i] + t[i] for i in range(3)]


def matmul_ref(a, b):
    """a @ b, column by column with apply_ref."""
    cols = [apply_ref(a, [b[0][j], b[1][j], b[2][j]]) for j in range(3)]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def from_ypr_ref(yaw, pitch, roll):
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    rz = [[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]]
    ry = [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
    rx = [[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]
    return matmul_ref(matmul_ref(rz, ry), rx)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


ANGLE = st.floats(-math.pi, math.pi)
POSE = st.tuples(ANGLE, st.floats(-math.pi / 2, math.pi / 2), ANGLE,
                 st.tuples(*[st.floats(-1e3, 1e3)] * 3))
# pitch at and next to +-pi/2, where from_ypr's yaw and roll terms mix
GIMBAL_POSES = [(0.3, math.pi / 2, -1.0, (1.0, 2.0, 3.0)),
                (-2.0, -math.pi / 2, 0.4, (-50.0, 0.25, 7.0)),
                (1.1, math.nextafter(math.pi / 2, 0.0), 2.9, (0.0, -3.0, 1e-3)),
                (-0.7, math.nextafter(-math.pi / 2, 0.0), -2.2, (900.0, -0.5, 2.0))]


class TestRotationOracle:
    """Every rotation against a per-point Python reference in the plain order,
    bit for bit: BLAS's kernels give other last bits on some CPUs."""

    @settings(max_examples=300, deadline=None)
    @given(POSE, POSE)
    @example(GIMBAL_POSES[0], GIMBAL_POSES[1])
    @example(GIMBAL_POSES[2], GIMBAL_POSES[3])
    def test_from_ypr_compose_inverse(self, p, q):
        a = RigidTransform.from_ypr(*p[:3], translation=p[3])
        b = RigidTransform.from_ypr(*q[:3], translation=q[3])
        assert bits(a.rotation) == bits(from_ypr_ref(*p[:3]))
        assert bits(a.translation) == bits(p[3])
        ra, rb = a.rotation.tolist(), b.rotation.tolist()
        c = a.compose(b)
        assert bits(c.rotation) == bits(matmul_ref(ra, rb))
        assert bits(c.translation) == bits(apply_ref(ra, b.translation.tolist(), p[3]))
        inv = a.inverse()
        assert bits(inv.rotation) == bits(a.rotation.T)
        minus_rt = [[-ra[j][i] for j in range(3)] for i in range(3)]
        assert bits(inv.translation) == bits(apply_ref(minus_rt, p[3]))

    def test_transform_cloud(self):
        rng = np.random.default_rng(9)
        xyz = rng.uniform(-150.0, 150.0, (2 * BLOCK_POINTS + 5, 3))  # a partial last block
        cloud = from_arrays(xyz)
        for yaw, pitch, roll, translation in (*GIMBAL_POSES, (*rng.uniform(-3, 3, 3), (4, 5, 6))):
            t = RigidTransform.from_ypr(yaw, pitch, roll, translation=translation)
            r, shift = t.rotation.tolist(), t.translation.tolist()
            want = [apply_ref(r, p, shift) for p in xyz.tolist()]
            assert transform_cloud(cloud, t).xyz.tobytes() == bits(want)

    def test_simulated_rays(self, monkeypatch):
        # the rays simulate_lidar passes to ray_cast: its sensor grid rotated by
        # the pose, as the transpose of a (3, N) array, whose per-axis planes
        # ray_cast takes without a copy
        seen = []

        def spy(origin, dirs, *args):
            seen.append(dirs)
            return ray_cast(origin, dirs, *args)

        monkeypatch.setattr(sim, "ray_cast", spy)
        agent_type = AGENT_TYPES["B"]
        grid = sim._ray_directions(agent_type).tolist()
        for yaw, pitch, roll, _ in (*GIMBAL_POSES[::2], (0.8, 0.0, 0.0, None)):
            pose = RigidTransform.from_ypr(yaw, pitch, roll, translation=(0.0, 0.0, 2.0))
            simulate_lidar(Scene(0.0, np.zeros((0, 6)), ((pose, agent_type),)), 0,
                           RngStream(0, "rays"))
            dirs = seen.pop()
            assert np.shares_memory(np.ascontiguousarray(dirs.T), dirs)
            r = pose.rotation.tolist()
            assert dirs.tobytes() == bits([apply_ref(r, d) for d in grid])


class TestRigidTransform:
    def test_from_ypr_is_valid(self):
        RigidTransform.from_ypr(0.3, -0.8, 1.4)  # construction checks the pose

    def test_ypr_round_trip(self):
        t = RigidTransform.from_ypr(0.9, -0.4, 0.2, translation=(1, 2, 3))
        y, p, r = t.to_ypr()
        assert (y, p, r) == pytest.approx((0.9, -0.4, 0.2))


class TestConstructorChecks:
    """A cloud and a pose check their own arrays, where they are made."""

    @pytest.mark.parametrize("xyz, intensity", [
        (np.zeros((5, 2)), np.ones(5)),
        (np.zeros((5, 3), dtype=np.int64), np.ones(5)),
        (np.zeros((5, 3), dtype=np.float32), np.ones(5, dtype=np.float32)),
        (np.zeros((5, 3)), np.ones(4)),  # 5 points, 4 intensities
    ])
    def test_cloud_refuses(self, xyz, intensity):
        with pytest.raises(ValueError, match="float64 arrays"):
            PointCloud(xyz, intensity)

    @pytest.mark.parametrize("index", [BLOCK_POINTS, 2 * BLOCK_POINTS + 9])
    @pytest.mark.parametrize("array", ["xyz", "intensity"])
    def test_cloud_checks_every_block(self, array, index):
        # two whole blocks and a partial one: a NaN or a value one ulp past the
        # limit opening the second block, or the last value of the partial block
        n = 2 * BLOCK_POINTS + 10
        arrays = {"xyz": np.zeros((n, 3)), "intensity": np.zeros(n)}
        for value in (np.nan, np.nextafter(LIMIT, np.inf), -np.nextafter(LIMIT, np.inf)):
            arrays[array][index] = value
            with pytest.raises(ValueError, match="point record not within"):
                PointCloud(arrays["xyz"].copy(), arrays["intensity"].copy())
        arrays[array][index] = -LIMIT  # the limit itself is a value a cloud holds
        PointCloud(arrays["xyz"], arrays["intensity"])

    @pytest.mark.parametrize("rotation, translation", [
        (2.0 * np.eye(3), np.zeros(3)),
        (np.diag([1.0, 1.0, -1.0]), np.zeros(3)),  # orthonormal, but a reflection
        (np.eye(2), np.zeros(3)),
        (np.eye(3), np.array([np.nan, 0.0, 0.0])),
        (np.eye(3), np.array([0.0, 0.0, np.nextafter(LIMIT, np.inf)])),
    ])
    def test_pose_refuses(self, rotation, translation):
        with pytest.raises(ValueError, match="invalid pose"):
            RigidTransform(rotation, translation)


def bounded(values) -> bool:
    """Whether every value lies within LIMIT of 0; NaN does not."""
    return all(-LIMIT <= v <= LIMIT for v in values)


def cloud_rule(xyz, intensity) -> bool:
    """PointCloud's rule in plain Python: an (N, 3) and an (N,) float64 array,
    every value within LIMIT."""
    return (xyz.dtype == intensity.dtype == np.float64 and xyz.ndim == 2
            and xyz.shape[1] == 3 and intensity.shape == (xyz.shape[0],)
            and bounded(xyz.ravel().tolist() + intensity.tolist()))


def pose_rule(rotation, translation) -> bool:
    """RigidTransform's rule in plain Python: a 3 x 3 float64 rotation whose rows
    are orthonormal and whose determinant is 1, each within 1e-9, and a (3,)
    float64 translation within LIMIT."""
    if not (rotation.dtype == translation.dtype == np.float64
            and rotation.shape == (3, 3) and translation.shape == (3,)):
        return False
    r = rotation.tolist()
    det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
           - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
           + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    return (all(abs(sum(r[i][k] * r[j][k] for k in range(3)) - (i == j)) < 1e-9
                for i in range(3) for j in range(3))
            and abs(det - 1.0) < 1e-9 and bounded(translation.tolist()))


def draw_array(data, shapes):
    """An array of one of `shapes`, mostly float64, else float32 or int64; float
    values include NaN, infinities, magnitudes near the dtype's limit and values
    at LIMIT and just past it."""
    dtype = data.draw(st.sampled_from([np.float64, np.float64, np.float32, np.int64]))
    past = [LIMIT + 1.0, np.nextafter(LIMIT, np.inf)][:1 if dtype is np.float32 else 2]
    elements = (st.integers(-5, 5) if dtype is np.int64
                else st.floats(width=32 if dtype is np.float32 else 64)
                | st.sampled_from([s * v for s in (-1.0, 1.0) for v in (LIMIT, *past)]))
    return data.draw(hnp.arrays(dtype, data.draw(st.sampled_from(shapes)), elements=elements))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_constructors_accept_what_the_rule_accepts(data):
    n = data.draw(st.integers(0, 4))
    xyz = draw_array(data, [(n, 3), (n, 3), (n, 2), (n,), (n, 3, 1)])
    intensity = draw_array(data, [(n,), (n,), (n + 1,), (n, 1)])
    want = cloud_rule(xyz, intensity)
    try:
        PointCloud(xyz, intensity)
        assert want
    except ValueError:
        assert not want
    # a rotation from from_ypr, perhaps scaled, mirrored, nudged or reshaped
    rotation = (RigidTransform.from_ypr(*data.draw(st.tuples(ANGLE, ANGLE, ANGLE))).rotation
                * data.draw(st.sampled_from([1.0, 1.0, -1.0, 2.0])))
    if data.draw(st.booleans()):
        rotation[data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))] += data.draw(
            st.sampled_from([1e-12, 1e-3, np.nan, np.inf, 1e200]))
    with np.errstate(over="ignore"):  # 1e200 as float32 is inf
        rotation = data.draw(st.sampled_from([rotation, rotation, rotation[:2, :2],
                                              rotation.reshape(9), rotation.astype(np.float32)]))
    translation = draw_array(data, [(3,), (3,), (2,), (1, 3)])
    want = pose_rule(rotation, translation)
    try:
        RigidTransform(rotation, translation)
        assert want
    except ValueError:
        assert not want


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
        with pytest.raises(ValueError, match="not within"):
            bad = from_arrays([[np.nan, 0, 0]])  # the cloud refuses it
            CooperativeGroup((make_agent("e", is_ego=True, cloud=bad),))

    def test_nan_translation(self):
        with pytest.raises(ValueError, match="invalid pose"):
            CooperativeGroup((make_agent("e", is_ego=True),
                              make_agent("a", translation=(np.nan, 0, 0))))

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

    def test_bounds(self):
        def make(beams=16, fov=(-20.0, 10.0)):
            return AgentType("X", beams, 90.0, fov, 0.01, "Sim", "Vehicle")

        assert make(MAX_BEAMS).beams == MAX_BEAMS and make(fov=(-90.0, 90.0)).fov_deg == (-90, 90)
        for beams in (MAX_BEAMS + 1, 10**12, 2**63, int(1e300)):
            with pytest.raises(ValueError, match=f"at most {MAX_BEAMS}"):
                make(beams)
        for fov in ((np.nextafter(-90.0, -np.inf), 10.0), (-20.0, np.nextafter(90.0, np.inf)),
                    (-1e300, 1e300)):
            with pytest.raises(ValueError, match=r"within \[-90, 90\]"):
                make(fov=fov)

    def test_beams_must_be_integral(self):
        # a float was accepted, and simulate_lidar's row table then raised a TypeError
        for beams in (16.5, 16.0, np.float64(16.0)):
            with pytest.raises(ValueError, match="invalid agent type"):
                AgentType("X", beams, 90.0, (-20.0, 10.0), 0.01, "Sim", "Vehicle")
        assert AgentType("X", np.int64(16), 90.0, (-20.0, 10.0), 0.01, "Sim", "Vehicle").beams == 16

    # a NaN range made simulate_lidar return no points (every `best <= nan` is
    # False), and an infinite range error overflowed its noise draw; both ranges
    # are bounded by the world bound
    @pytest.mark.parametrize("value", [np.nan, np.inf, np.nextafter(WORLD_BOUND_M, np.inf)])
    def test_non_finite_range_rejected(self, value):
        with pytest.raises(ValueError, match="range_error_m must be at most"):
            AgentType("X", 32, value, (-25.0, 5.0), 0.0, "Sim", "Vehicle")
        assert AgentType("X", 32, WORLD_BOUND_M, (-25.0, 5.0), 0.0, "Sim", "Vehicle")

    @pytest.mark.parametrize("value", [np.nan, np.inf, np.nextafter(WORLD_BOUND_M, np.inf)])
    def test_non_finite_range_error_rejected(self, value):
        with pytest.raises(ValueError, match="range_error_m must be at most"):
            AgentType("X", 32, 120.0, (-25.0, 5.0), value, "Sim", "Vehicle")
