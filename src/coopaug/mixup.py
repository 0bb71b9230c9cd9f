"""Mixup agent construction: half-plane cut between the two nearest agents."""

import math
from dataclasses import dataclass

import numpy as np

from .model import Agent, CooperativeGroup, PointCloud, RngStream

# The split line turns by up to this much either way: the cut varies, yet
# both source agents keep contributing points.
SPLIT_ROTATION_RAD = math.pi / 4
# BEV centres closer than this have no split line between them, so such a
# pair is never mixed.
MIN_SPLIT_DISTANCE_M = 1e-9


@dataclass(frozen=True)
class SplitLine:
    """BEV line through `anchor` with unit `direction`; signs of the 2D cross
    product against the direction partition the plane."""

    anchor: np.ndarray     # (2,)
    direction: np.ndarray  # (2,), unit norm

    def side(self, xy: np.ndarray) -> np.ndarray:
        """Signed side of points whose first two columns are BEV x, y:
        cross(direction, p - anchor), one column at a time."""
        return (self.direction[0] * (xy[:, 1] - self.anchor[1])
                - self.direction[1] * (xy[:, 0] - self.anchor[0]))


def bev_center(agent: Agent) -> np.ndarray:
    """BEV position of an agent's sensor origin."""
    return agent.pose.translation[:2]


def nearest_pair(group: CooperativeGroup) -> tuple[int, int] | None:
    """Index pair with minimum BEV distance of those at least
    MIN_SPLIT_DISTANCE_M apart; lexicographic tie-break. Distances that
    overflow to inf tie, so if all do the pair is the first that qualifies.
    None when no pair qualifies: one agent, or all at one spot."""
    centers = [bev_center(a) for a in group.agents]
    best, best_d = None, math.inf
    with np.errstate(over="ignore"):
        for i in range(group.n):
            for j in range(i + 1, group.n):
                d = float(np.hypot(*(centers[i] - centers[j])))
                if d >= MIN_SPLIT_DISTANCE_M and (best is None or d < best_d - 1e-15):
                    best_d = d
                    best = (i, j)
    return best


def split_line(c1: np.ndarray, c2: np.ndarray, rotation_rad: float) -> SplitLine:
    """Perpendicular bisector of (c1, c2) rotated by rotation_rad in the plane."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    with np.errstate(over="ignore"):
        delta = c2 - c1
    norm = float(np.hypot(*delta))
    if not math.isfinite(norm):
        raise ValueError("split centers too far apart: their distance overflows")
    if norm < MIN_SPLIT_DISTANCE_M:
        raise ValueError("split centers coincide")
    # base direction: +90 degree rotation of the center-to-center direction
    base = np.array([-delta[1], delta[0]]) / norm
    c, s = math.cos(rotation_rad), math.sin(rotation_rad)
    direction = np.array([c * base[0] - s * base[1], s * base[0] + c * base[1]])
    return SplitLine(c1 / 2.0 + c2 / 2.0, direction)


def cut_and_combine(p1: PointCloud, p2: PointCloud,
                    line: SplitLine) -> tuple[PointCloud, int, int]:
    """p1's points with side >= 0, then p2's with side < 0, in input order,
    with the number of points kept from each."""
    kept1 = np.flatnonzero(line.side(p1.xyz) >= 0.0)
    kept2 = np.flatnonzero(line.side(p2.xyz) < 0.0)
    n1, n = len(kept1), len(kept1) + len(kept2)
    xyz, intensity = np.empty((n, 3)), np.empty(n)
    # gathered straight into the output; mode "clip" writes to `out` directly,
    # where "raise" would buffer a copy first, and every index is in range
    for cloud, kept, part in ((p1, kept1, slice(0, n1)), (p2, kept2, slice(n1, n))):
        cloud.xyz.take(kept, axis=0, out=xyz[part], mode="clip")
        cloud.intensity.take(kept, out=intensity[part], mode="clip")
    return PointCloud(xyz, intensity), n1, n - n1


def _fresh_id(group: CooperativeGroup) -> str:
    taken = {a.id for a in group.agents}
    k = 0
    while f"mixup-{k}" in taken:
        k += 1
    return f"mixup-{k}"


def make_mixup_agent(group: CooperativeGroup, rng: RngStream,
                     pair: tuple[int, int]) -> Agent:
    """Build the mixup agent from the half-plane combination of the pair's members.

    Pose and sensor type are inherited from the pair member that contributed
    more points to the cut (ties go to the first member).
    """
    a1, a2 = group.agents[pair[0]], group.agents[pair[1]]
    rot = float(rng.uniform(-SPLIT_ROTATION_RAD, SPLIT_ROTATION_RAD))
    line = split_line(bev_center(a1), bev_center(a2), rot)
    cloud, kept1, kept2 = cut_and_combine(a1.cloud, a2.cloud, line)
    donor = a1 if kept1 >= kept2 else a2
    return Agent(id=_fresh_id(group), pose=donor.pose, cloud=cloud,
                 agent_type=donor.agent_type, is_ego=False)
