"""Core domain types: point clouds, rigid transforms, agents, groups, distributions."""

import math
from dataclasses import dataclass, field

import numpy as np

# Kept for perfbench/workloads.py, which passes it to transform_cloud as an ignored argument.
EGO_FRAME = "ego"
# Points per block in the per-point passes over a cloud (its finiteness check,
# `rangeview.project`, `setupaug.apply_setup_aug`, `pipeline.occupancy`). A block's
# temporaries stay in cache and their memory is reused, where those of a whole
# 450k-point cloud come from fresh pages that fault on first touch.
BLOCK_POINTS = 16384
# Most beams of an agent type, far above any sensor's (E has 300): row tables stay under 1 MB.
MAX_BEAMS = 2**16


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points: xyz an (N, 3) and intensity an (N,) float64 array, all
    finite; intensity is in [0, 1] by convention, unchecked. The cloud checks both
    arrays when it is made, takes them over and makes them read-only. `grid` is
    its BEV occupancy grid, None until `pipeline.occupancy` or `early_fuse` sets it."""

    xyz: np.ndarray
    intensity: np.ndarray
    grid: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.xyz.dtype == self.intensity.dtype == np.float64
                and self.xyz.shape[1:] == (3,) and self.intensity.shape == self.xyz.shape[:1]):
            raise ValueError("point cloud needs (N, 3) and (N,) float64 arrays")
        if not all(np.isfinite(a[i:i + BLOCK_POINTS]).all()
                   for a in (self.xyz, self.intensity) for i in range(0, len(a), BLOCK_POINTS)):
            raise ValueError("non-finite point record")
        self.xyz.flags.writeable = False
        self.intensity.flags.writeable = False

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass(frozen=True)
class RigidTransform:
    """A proper (3, 3) rotation and finite (3,) translation: float64, checked, then read-only."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r, t = self.rotation, self.translation
        with np.errstate(all="ignore"):  # a product that overflows reads as improper
            if not (r.dtype == t.dtype == np.float64 and r.shape == (3, 3) and t.shape == (3,)
                    and np.abs(r @ r.T - np.eye(3)).max() < 1e-9
                    and abs(np.linalg.det(r) - 1.0) < 1e-9 and np.isfinite(t).all()):
                raise ValueError("invalid pose: needs a proper rotation and a finite translation")
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
        rz = ((cy, -sy, 0.0), (sy, cy, 0.0), (0.0, 0.0, 1.0))
        ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
        return RigidTransform(np.array(rotate(rotate(rz, *ry), *rx)), np.array(translation, float))

    def to_ypr(self) -> tuple[float, float, float]:
        """Inverse of from_ypr (Z-Y-X convention)."""
        r = self.rotation
        pitch = math.asin(max(-1.0, min(1.0, -r[2, 0])))
        yaw = math.atan2(r[1, 0], r[0, 0])
        roll = math.atan2(r[2, 1], r[2, 2])
        return yaw, pitch, roll

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, np.array(rotate(-rt, *self.translation)))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self ∘ other)(p) = self(other(p))."""
        r = self.rotation
        return RigidTransform(np.array(rotate(r, *other.rotation)),
                              np.array(rotate(r, *other.translation)) + self.translation)


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
        if (not isinstance(self.beams, (int, np.integer)) or self.beams < 1 or self.range_m <= 0
                or self.range_error_m < 0):
            raise ValueError("invalid agent type parameters")
        if not (math.isfinite(self.range_m) and math.isfinite(self.range_error_m)):
            raise ValueError("range_m and range_error_m must be finite")
        if not self.fov_deg[0] < self.fov_deg[1]:
            raise ValueError("fov min must be < max")
        if self.beams > MAX_BEAMS:
            raise ValueError(f"beams must be at most {MAX_BEAMS}")
        if self.fov_deg[0] < -90.0 or self.fov_deg[1] > 90.0:
            raise ValueError("fov must lie within [-90, 90] degrees")


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
    """Agents in one ego frame; checked when made (validate_group), as each cloud and pose is."""

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


def rotate(r, x, y, z) -> tuple:
    """Rows (r[i][0] * x + r[i][1] * y) + r[i][2] * z of 3 x 3 r times floats or arrays x, y, z:
    one order on every CPU, unlike BLAS's kernels. `rotate(a, *b)` is the rows of a @ b."""
    return tuple((a * x + b * y) + c * z for a, b, c in r)


def transform_cloud(cloud: PointCloud, t: RigidTransform, _ignored=None) -> PointCloud:
    """Apply a rigid transform to every point, a block at a time; intensity and order preserved."""
    xyz = np.empty((len(cloud), 3))
    for start in range(0, len(xyz), BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        for k, v in enumerate(rotate(t.rotation, *cloud.xyz[block].T)):
            xyz[block, k] = v + t.translation[k]
    return PointCloud(xyz, cloud.intensity)


def validate_group(group: CooperativeGroup) -> str | None:
    """None if the group has one ego and unique ids, else a violation message."""
    n_ego = sum(a.is_ego for a in group.agents)
    if n_ego != 1:
        return f"ego count = {n_ego}"
    ids = [a.id for a in group.agents]
    if len(set(ids)) != len(ids):
        return "duplicate agent ids"
    return None
