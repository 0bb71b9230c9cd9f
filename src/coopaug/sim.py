"""Synthetic multi-agent LiDAR scenes: ground plane plus axis-aligned boxes."""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import ray_cast
from .model import (Agent, AgentType, CooperativeGroup, PointCloud,
                    RigidTransform, RngStream, transform_cloud)
from .rangeview import AZIMUTH_BINS

REGION_HALF_M = 50.0
MIN_AGENT_SEPARATION_M = 5.0
SENSOR_HEIGHT_M = 2.0
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Scene:
    ground_z: float
    boxes: np.ndarray  # (n, 6): cx, cy, cz, hx, hy, hz
    agent_placements: tuple[tuple[RigidTransform, AgentType], ...]


def make_scene(n_boxes: int, types, rng: RngStream) -> Scene:
    """Random scene with car-sized boxes and a well-separated placement per agent type."""
    types = list(types)
    if not types:
        raise ValueError("need one agent type per agent")
    positions: list[np.ndarray] = []
    placements = []
    for agent_type in types:
        for _ in range(_MAX_ATTEMPTS):
            xy = rng.uniform(-REGION_HALF_M, REGION_HALF_M, 2)
            if all(np.hypot(*(xy - p)) >= MIN_AGENT_SEPARATION_M for p in positions):
                break
        else:
            raise ValueError("could not separate agents")
        positions.append(xy)
        yaw = float(rng.uniform(-math.pi, math.pi))
        pose = RigidTransform.from_ypr(yaw, translation=(xy[0], xy[1], SENSOR_HEIGHT_M))
        placements.append((pose, agent_type))

    boxes = np.zeros((n_boxes, 6))
    for b in range(n_boxes):
        for _ in range(_MAX_ATTEMPTS):
            cxy = rng.uniform(-REGION_HALF_M, REGION_HALF_M, 2)
            hx = float(rng.uniform(1.8, 2.6))
            hy = float(rng.uniform(0.8, 1.1))
            hz = float(rng.uniform(0.6, 0.9))
            margin = max(hx, hy) + 1.0
            if all(np.hypot(*(cxy - p)) >= margin for p in positions):
                boxes[b] = (cxy[0], cxy[1], hz, hx, hy, hz)  # resting on the ground
                break
        else:
            raise ValueError("could not place boxes clear of agents")
    return Scene(ground_z=0.0, boxes=boxes, agent_placements=tuple(placements))


def _ray_directions(agent_type: AgentType) -> np.ndarray:
    """(beams * AZIMUTH_BINS, 3) unit rays, beam-major, in the sensor frame.

    Azimuths sit at range-image pixel centers so projection round trips are
    collision-free; elevations are spaced evenly and inclusively over the FOV.
    """
    elev = np.radians(np.linspace(agent_type.fov_deg[0], agent_type.fov_deg[1],
                                  agent_type.beams))
    azim = math.pi * (1.0 - (2.0 * np.arange(AZIMUTH_BINS) + 1.0) / AZIMUTH_BINS)
    cos_e = np.cos(elev)[:, None]
    dirs = np.empty((agent_type.beams, AZIMUTH_BINS, 3))
    np.multiply(cos_e, np.cos(azim), out=dirs[:, :, 0])
    np.multiply(cos_e, np.sin(azim), out=dirs[:, :, 1])
    dirs[:, :, 2] = np.sin(elev)[:, None]
    return dirs.reshape(-1, 3)


def simulate_lidar(scene: Scene, placement_index: int, rng: RngStream) -> PointCloud:
    """Cast all rays of one placement; returns the cloud in the agent frame."""
    pose, agent_type = scene.agent_placements[placement_index]
    dirs_sensor = _ray_directions(agent_type)
    dist = ray_cast(pose.translation, dirs_sensor @ pose.rotation.T, scene.ground_z,
                    scene.boxes, agent_type.range_m, AZIMUTH_BINS)
    hit = dist > 0.0
    ranges = dist[hit]
    if agent_type.range_error_m > 0.0:
        ranges = ranges + rng.uniform(-agent_type.range_error_m,
                                      agent_type.range_error_m, ranges.shape[0])
    xyz = dirs_sensor.compress(hit, axis=0)
    xyz *= ranges[:, None]
    return PointCloud(xyz, np.ones(len(xyz)))


def make_group(scene: Scene, rng: RngStream) -> CooperativeGroup:
    """Simulate every placement and project all clouds into the frame of
    placement 0, the ego."""
    ego_inv = scene.agent_placements[0][0].inverse()
    agents = []
    for i, (pose, agent_type) in enumerate(scene.agent_placements):
        cloud = simulate_lidar(scene, i, rng)
        to_ego = RigidTransform.identity() if i == 0 else ego_inv.compose(pose)
        agents.append(Agent(id=f"agent-{i}", pose=to_ego,
                            cloud=transform_cloud(cloud, to_ego),
                            agent_type=agent_type, is_ego=(i == 0)))
    return CooperativeGroup(tuple(agents))
