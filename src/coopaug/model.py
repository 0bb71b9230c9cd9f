"""Core domain types: point clouds, rigid transforms, agents, groups, distributions."""

import math
from dataclasses import dataclass

import numpy as np

# Kept for perfbench/workloads.py, which passes it to transform_cloud as an ignored argument.
EGO_FRAME = "ego"
# Points per block in the per-point passes over a cloud (`rangeview.project`,
# `setupaug.apply_setup_aug`, `pipeline.occupancy`). A block's temporaries
# stay in cache and their memory is reused, where those of a whole 450k-point
# cloud come from fresh pages that fault on first touch.
BLOCK_POINTS = 16384


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points: xyz an (N, 3) float64 array, intensity an (N,) float64
    array in [0, 1]. The cloud takes both arrays over, and they are read-only
    once it is made, so a cloud in a group stays as the group checked it."""

    xyz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        self.xyz.flags.writeable = False
        self.intensity.flags.writeable = False

    @staticmethod
    def from_arrays(xyz, intensity=None) -> "PointCloud":
        """A cloud of copies of the inputs: the caller's arrays stay its own, and writable."""
        xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
        if intensity is None:
            intensity = np.ones(len(xyz))
        intensity = np.array(intensity, dtype=np.float64).reshape(-1)
        if len(intensity) != len(xyz):
            raise ValueError("xyz and intensity length mismatch")
        return PointCloud(xyz, intensity)

    def __len__(self) -> int:
        return len(self.xyz)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.xyz).all() and np.isfinite(self.intensity).all())


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (3x3, det +1) plus translation (3,): float64 arrays it takes over, read-only."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation.flags.writeable = False
        self.translation.flags.writeable = False

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_ypr(yaw: float, pitch: float = 0.0, roll: float = 0.0,
                 translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        cy, sy = math.cos(yaw), math.sin(yaw)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cr, sr = math.cos(roll), math.sin(roll)
        rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
        return RigidTransform(rz @ ry @ rx, np.asarray(translation, dtype=np.float64))

    def to_ypr(self) -> tuple[float, float, float]:
        """Inverse of from_ypr (Z-Y-X convention)."""
        r = self.rotation
        pitch = math.asin(max(-1.0, min(1.0, -r[2, 0])))
        yaw = math.atan2(r[1, 0], r[0, 0])
        roll = math.atan2(r[2, 1], r[2, 2])
        return yaw, pitch, roll

    def is_valid(self) -> bool:
        """A proper rotation and a finite translation."""
        r = self.rotation
        return (np.abs(r @ r.T - np.eye(3)).max() < 1e-9
                and abs(np.linalg.det(r) - 1.0) < 1e-9
                and np.isfinite(self.translation).all())

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self ∘ other)(p) = self(other(p))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)


@dataclass(frozen=True)
class AgentType:
    """LiDAR sensor/platform configuration of one agent class."""

    name: str
    beams: int
    range_m: float
    fov_deg: tuple[float, float]
    range_error_m: float
    realism: str          # "Sim" | "Real"
    agent_class: str      # "Vehicle" | "Infrastructure"

    def __post_init__(self):
        if self.beams < 1 or self.range_m <= 0 or self.range_error_m < 0:
            raise ValueError("invalid agent type parameters")
        if not self.fov_deg[0] < self.fov_deg[1]:
            raise ValueError("fov min must be < max")


# Built-in sensor setups for agent types A..E. Type D's error is unpublished
# and stored as 0 rather than inventing noise.
AGENT_TYPES: dict[str, AgentType] = {
    "A": AgentType("A", 64, 120.0, (-25.0, 5.0), 0.02, "Sim", "Vehicle"),
    "B": AgentType("B", 32, 120.0, (-25.0, 5.0), 0.02, "Sim", "Infrastructure"),
    "C": AgentType("C", 32, 200.0, (-25.0, 15.0), 0.03, "Real", "Vehicle"),
    "D": AgentType("D", 40, 200.0, (-30.0, 10.0), 0.0, "Real", "Vehicle"),
    "E": AgentType("E", 300, 280.0, (-30.0, 10.0), 0.03, "Real", "Infrastructure"),
}


@dataclass(frozen=True)
class Agent:
    id: str
    pose: RigidTransform          # agent sensor frame -> ego frame
    cloud: PointCloud             # in ego frame
    agent_type: AgentType
    is_ego: bool = False


@dataclass(frozen=True)
class CooperativeGroup:
    """Agents in one ego frame; valid by construction (see validate_group), and its
    arrays are read-only once the group is made, so it stays valid."""

    agents: tuple[Agent, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        violation = validate_group(self)
        if violation is not None:
            raise ValueError(f"invalid group: {violation}")

    @property
    def n(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class CountDistribution:
    """Probability mass function over agent counts; queries off support return 0."""

    pmf: dict[int, float]

    def __post_init__(self):
        object.__setattr__(self, "pmf", dict(self.pmf))
        total = sum(self.pmf.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf sums to {total}, not 1")
        for k, p in self.pmf.items():
            if k < 1 or not (0.0 <= p <= 1.0 + 1e-12):
                raise ValueError(f"bad pmf entry {k}: {p}")

    def prob(self, count: int) -> float:
        return self.pmf.get(count, 0.0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.pmf))

    def tv_distance(self, other: "CountDistribution") -> float:
        keys = set(self.pmf) | set(other.pmf)
        return 0.5 * sum(abs(self.prob(k) - other.prob(k)) for k in keys)


@dataclass(frozen=True)
class CmagConfig:
    """`cmag`'s unread `cfg`; the pipeline's magnitudes are module constants."""

    seed: int = 0


class RngStream:
    """Deterministic random stream keyed by (seed, label).

    The same seed, label, and call sequence always reproduce the same values.
    Streams are single-owner; derive() creates independent child streams.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed)
        self.label = label
        key = [self.seed & 0xFFFFFFFFFFFFFFFF] + list(label.encode("utf-8"))
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

    def derive(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.label}/{label}")

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]


def transform_cloud(cloud: PointCloud, t: RigidTransform, _ignored=None) -> PointCloud:
    """Apply a rigid transform to every point; intensity and order preserved."""
    xyz = cloud.xyz @ t.rotation.T
    for k in range(3):  # in place, one column at a time: a (N, 3) + (3,) add is slower
        xyz[:, k] += t.translation[k]
    return PointCloud(xyz, cloud.intensity)


def validate_group(group: CooperativeGroup) -> str | None:
    """Return None if the group satisfies all invariants, else a violation message."""
    n_ego = sum(a.is_ego for a in group.agents)
    if n_ego != 1:
        return f"ego count = {n_ego}"
    ids = [a.id for a in group.agents]
    if len(set(ids)) != len(ids):
        return "duplicate agent ids"
    for a in group.agents:
        if not a.cloud.is_finite():
            return f"agent {a.id}: non-finite point"
        if not a.pose.is_valid():
            return f"agent {a.id}: invalid pose"
    return None
