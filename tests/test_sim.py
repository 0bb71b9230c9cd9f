import hashlib
import math

import numpy as np
import pytest

from coopaug import (AGENT_TYPES, AgentType, RigidTransform, RngStream, Scene,
                     density_augment, make_group, make_scene, project, simulate_lidar,
                     sim, transform_cloud, validate_group)
from coopaug.rangeview import AZIMUTH_BINS

QUIET = AgentType("Q", 8, 120.0, (-25.0, 5.0), 0.0, "Sim", "Vehicle")


def golden_group():
    """A C, E, A scene with 32 boxes, every ray cast."""
    scene = make_scene(32, [AGENT_TYPES[t] for t in "CEA"], RngStream(3, "golden"))
    return make_group(scene, RngStream(3, "golden-lidar"))


def golden_cloud_digests():
    """The sha256 of each golden agent's xyz bytes. The rays and clouds are
    rotated in one arithmetic order, so every x86-64 CPU gives these bits
    (tests/test_cross_cpu.py)."""
    return [hashlib.sha256(a.cloud.xyz.tobytes()).hexdigest() for a in golden_group().agents]


def golden_rangeview_digests():
    """The golden scene through the range view: each agent's cloud projected at
    its own type and, but for type E itself, at type E's 300 beams, which
    crowds several points into many pixels; then one density augmentation of
    the type E cloud."""
    group = golden_group()
    digests = []
    for agent in group.agents:
        for t in dict.fromkeys((agent.agent_type, AGENT_TYPES["E"])):
            img = project(agent.cloud, t.fov_deg, t.beams, AZIMUTH_BINS)
            digests.append(hashlib.sha256(img.ranges.tobytes()
                                          + img.intensities.tobytes()).hexdigest())
    out = density_augment(group.agents[1].cloud, AGENT_TYPES["E"], RngStream(3, "golden-pa"))
    digests.append(hashlib.sha256(out.xyz.tobytes() + out.intensity.tobytes()).hexdigest())
    return digests


class TestMakeScene:
    def test_minimal_scene(self):
        scene = make_scene(0, [QUIET], RngStream(0, "s"))
        assert len(scene.agent_placements) == 1
        assert scene.boxes.shape == (0, 6)
        assert scene.ground_z == 0.0

    def test_determinism(self):
        a = make_scene(5, [QUIET, QUIET], RngStream(3, "s"))
        b = make_scene(5, [QUIET, QUIET], RngStream(3, "s"))
        assert np.array_equal(a.boxes, b.boxes)
        for (pa, _), (pb, _) in zip(a.agent_placements, b.agent_placements):
            assert np.array_equal(pa.translation, pb.translation)
            assert np.array_equal(pa.rotation, pb.rotation)

    def test_agent_separation(self):
        scene = make_scene(0, [QUIET] * 4, RngStream(1, "s"))
        pos = [p.translation[:2] for p, _ in scene.agent_placements]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.hypot(*(pos[i] - pos[j])) >= 5.0

    def test_box_dimensions(self):
        scene = make_scene(20, [QUIET], RngStream(2, "s"))
        hx, hy, hz = scene.boxes[:, 3], scene.boxes[:, 4], scene.boxes[:, 5]
        assert np.all((hx >= 1.8) & (hx <= 2.6))
        assert np.all((hy >= 0.8) & (hy <= 1.1))
        assert np.all((hz >= 0.6) & (hz <= 0.9))
        assert np.array_equal(scene.boxes[:, 2], hz)  # resting on the ground

    @pytest.mark.parametrize("n_boxes, n_agents, message", [
        (0, 2, "could not separate agents"), (1, 1, "could not place boxes clear of agents")])
    def test_region_too_small(self, monkeypatch, n_boxes, n_agents, message):
        # in a 1 m square no two agents are 5 m apart, and no box clears an agent
        monkeypatch.setattr(sim, "REGION_HALF_M", 0.5)
        with pytest.raises(ValueError, match=message):
            make_scene(n_boxes, [QUIET] * n_agents, RngStream(0, "s"))


class TestSimulateLidar:
    def flat_scene(self, agent_type, height=2.0):
        pose = RigidTransform.from_ypr(0.0, translation=(0.0, 0.0, height))
        return Scene(0.0, np.zeros((0, 6)), ((pose, agent_type),))

    def test_ground_intersection_analytic(self):
        # lowest beam at -25 deg from 2 m: range = 2 / sin(25 deg)
        scene = self.flat_scene(QUIET)
        cloud = simulate_lidar(scene, 0, RngStream(0, "l"))
        ranges = np.linalg.norm(cloud.xyz, axis=1)
        phi = np.degrees(np.arctan2(cloud.xyz[:, 2],
                                    np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])))
        lowest = ranges[np.isclose(phi, -25.0)]
        assert len(lowest) == 2048
        assert np.allclose(lowest, 2.0 / math.sin(math.radians(25.0)), atol=1e-9)
        assert np.allclose(cloud.xyz[np.isclose(phi, -25.0), 2], -2.0, atol=1e-9)

    def test_zero_elevation_beam_misses_ground(self):
        level = AgentType("L", 2, 120.0, (-25.0, 0.0), 0.0, "Sim", "Vehicle")
        cloud = simulate_lidar(self.flat_scene(level), 0, RngStream(0, "l"))
        phi = np.degrees(np.arctan2(cloud.xyz[:, 2],
                                    np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])))
        assert np.all(phi < -1e-9)  # only the -25 deg beam returns

    def test_noise_free_determinism(self):
        scene = make_scene(6, [QUIET], RngStream(5, "s"))
        a = simulate_lidar(scene, 0, RngStream(0, "l"))
        b = simulate_lidar(scene, 0, RngStream(99, "l"))  # no error -> rng unused
        assert np.array_equal(a.xyz, b.xyz)

    def test_range_and_fov_bounds(self):
        noisy = AgentType("N", 8, 40.0, (-25.0, 5.0), 0.05, "Sim", "Vehicle")
        scene = make_scene(10, [noisy], RngStream(7, "s"))
        cloud = simulate_lidar(scene, 0, RngStream(7, "l"))
        ranges = np.linalg.norm(cloud.xyz, axis=1)
        assert ranges.max() <= 40.0 + 0.05 + 1e-9
        phi = np.degrees(np.arctan2(cloud.xyz[:, 2],
                                    np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])))
        assert phi.min() >= -25.0 - 1e-9 and phi.max() <= 5.0 + 1e-9

    def test_box_occlusion(self):
        # a box in front of the sensor shortens returns behind it
        pose = RigidTransform.from_ypr(0.0, translation=(0.0, 0.0, 1.0))
        box = np.array([[10.0, 0.0, 1.0, 1.0, 2.0, 1.0]])
        scene = Scene(0.0, box, ((pose, QUIET),))
        cloud = simulate_lidar(scene, 0, RngStream(0, "l"))
        forward = cloud.xyz[(np.abs(cloud.xyz[:, 1]) < 0.5) & (cloud.xyz[:, 0] > 0)]
        assert forward[:, 0].min() <= 9.0 + 1e-6


class TestMakeGroup:
    def test_single_placement_identity(self):
        scene = self.two_agent_scene(n=1)
        g = make_group(scene, RngStream(0, "g"))
        assert g.n == 1 and g.agents[0].is_ego
        assert np.array_equal(g.agents[0].pose.rotation, np.eye(3))
        assert np.array_equal(g.agents[0].pose.translation, np.zeros(3))

    def two_agent_scene(self, n=2):
        placements = []
        for i in range(n):
            pose = RigidTransform.from_ypr(0.4 * i, translation=(8.0 * i, 0.0, 2.0))
            placements.append((pose, QUIET))
        box = np.array([[8.0, 6.0, 0.8, 2.0, 1.0, 0.8]])
        return Scene(0.0, box, tuple(placements))

    def test_valid_group(self):
        g = make_group(self.two_agent_scene(), RngStream(1, "g"))
        assert validate_group(g) is None
        assert g.n == 2

    def test_cross_agent_box_consistency(self):
        # box surface points seen by both agents lie on the real box (world frame)
        scene = self.two_agent_scene()
        g = make_group(scene, RngStream(2, "g"))
        ego_pose = scene.agent_placements[0][0]
        box = scene.boxes[0]
        for agent in g.agents:
            world = agent.cloud.xyz @ ego_pose.rotation.T + ego_pose.translation
            on_box = np.abs(world[:, 2] - scene.ground_z) > 0.02
            if not on_box.any():
                continue
            pts = world[on_box]
            tol = 1e-6  # quiet sensor: no range noise
            inside = ((np.abs(pts[:, 0] - box[0]) <= box[3] + tol)
                      & (np.abs(pts[:, 1] - box[1]) <= box[4] + tol)
                      & (np.abs(pts[:, 2] - box[2]) <= box[5] + tol))
            assert inside.all()

    def test_full_scene_golden_digest(self):
        assert golden_cloud_digests() == [
            "fdb7df1e44c80d6a224a04370ce963c7faf4f5fb8c36f34176fd75ae5d1202d3",
            "e7fb2549d440fbde9cf2e2da8ffb0d0badbc0be00b2ca78f455bb6862bdb885b",
            "5d2912f4c718283d483104e00a5a2d5239b08af08e9ebb8d4d17b7c2f53400fd"]

    def test_full_scene_rangeview_golden_digest(self):
        assert golden_rangeview_digests() == [
            "576a16c0a6fdb891fb9f6fc60a832a41e960493cbfc2d7a931e3e6af955b8462",
            "963875ddf2e39d6311d5c49d4ae5d794c299f6e88a86953504469fc326669802",
            "18931d3e8cc298556dc1fd3ecdec3e320ad168d7366cc29b6a03845dec10df5d",
            "71547ccfab7bfaefb8c2031d54fd9f757ab3a91576d22e960757b8b62386e19d",
            "306bb467db6bc0108d082799fe3290ec6fd9883f8268820857df5a23b8e16c31",
            "0a619d1c60baa13c00311924d4682d82850f1a17a0f91fd787535b03be18c6d8"]

    def test_ego_keeps_its_sensor_cloud(self):
        # the identity transform returns every nonzero coordinate exactly, and
        # no simulated coordinate is zero, so the ego's cloud is not transformed
        scene = make_scene(4, [AGENT_TYPES[t] for t in "AB"], RngStream(4, "s"))
        cloud = simulate_lidar(scene, 0, RngStream(4, "l"))
        ego = make_group(scene, RngStream(4, "l")).agents[0]
        assert ego.cloud.xyz.tobytes() == cloud.xyz.tobytes()
        assert np.all(cloud.xyz != 0.0)
        same = transform_cloud(cloud, RigidTransform.identity())
        assert same.xyz.tobytes() == cloud.xyz.tobytes()
