"""Synthetic multi-agent LiDAR scenes: ground plane plus axis-aligned boxes."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlacementFailure
from .kernels import ray_cast
from .model import (EGO_FRAME, Agent, AgentType, CooperativeGroup, PointCloud,
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
            raise PlacementFailure("could not separate agents")
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
            raise PlacementFailure("could not place boxes clear of agents")
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
    dirs[:, :, 0] = cos_e * np.cos(azim)[None, :]
    dirs[:, :, 1] = cos_e * np.sin(azim)[None, :]
    dirs[:, :, 2] = np.sin(elev)[:, None]
    return dirs.reshape(-1, 3)


def simulate_lidar(scene: Scene, placement_index: int, rng: RngStream) -> PointCloud:
    """Cast all rays of one placement; returns the cloud in the agent frame."""
    pose, agent_type = scene.agent_placements[placement_index]
    dirs_sensor = _ray_directions(agent_type)
    dirs_world = dirs_sensor @ pose.rotation.T
    dist = ray_cast(pose.translation, dirs_world, scene.ground_z, scene.boxes,
                    agent_type.range_m)
    hit = dist > 0.0
    ranges = dist[hit]
    if agent_type.range_error_m > 0.0:
        ranges = ranges + rng.uniform(-agent_type.range_error_m,
                                      agent_type.range_error_m, ranges.shape[0])
    xyz = dirs_sensor[hit] * ranges[:, None]
    return PointCloud(xyz, np.ones(len(xyz)), frame=f"agent-{placement_index}")


def make_group(scene: Scene, ego_index: int, rng: RngStream) -> CooperativeGroup:
    """Simulate every placement and project all clouds into the ego frame."""
    if not (0 <= ego_index < len(scene.agent_placements)):
        raise IndexError(f"ego index {ego_index} out of bounds")
    ego_pose = scene.agent_placements[ego_index][0]
    ego_inv = ego_pose.inverse()
    agents = []
    for i, (pose, agent_type) in enumerate(scene.agent_placements):
        cloud = simulate_lidar(scene, i, rng)
        to_ego = RigidTransform.identity() if i == ego_index else ego_inv.compose(pose)
        agents.append(Agent(id=f"agent-{i}", pose=to_ego,
                            cloud=transform_cloud(cloud, to_ego, EGO_FRAME),
                            agent_type=agent_type, is_ego=(i == ego_index)))
    return CooperativeGroup(tuple(agents))
