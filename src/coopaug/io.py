"""File formats: binary point clouds, PGM range images, JSON scene manifests and pmfs."""

import json
import struct
import sys
from pathlib import Path

import numpy as np

from .model import (AGENT_TYPES, Agent, AgentType, CooperativeGroup,
                    CountDistribution, PointCloud, RigidTransform)
from .rangeview import RangeImage

CLOUD_MAGIC = b"PCV1"
MANIFEST_VERSION = "1"


def save_cloud(cloud: PointCloud, path) -> None:
    """Write magic, little-endian uint32 count, then float32 (x, y, z, i) records; a
    value float32 would hold as inf raises ValueError before the file is opened."""
    records = np.empty((len(cloud), 4), dtype="<f4")
    with np.errstate(over="ignore"):
        records[:, :3] = cloud.xyz
        records[:, 3] = cloud.intensity
    if not np.isfinite(records).all():
        raise ValueError(f"{path}: point record beyond float32 range")
    with open(path, "wb") as fh:
        fh.write(CLOUD_MAGIC)
        fh.write(struct.pack("<I", len(cloud)))
        fh.write(records)


def load_cloud(path) -> PointCloud:
    """Read a cloud written by save_cloud, in the ego frame. Bytes not in that format (a bad
    magic, a length other than the count's) raise OSError, a non-finite record ValueError."""
    data = Path(path).read_bytes()
    if data[:4] != CLOUD_MAGIC:
        raise OSError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise OSError(f"{path}: missing point count")
    (count,) = struct.unpack("<I", data[4:8])
    expected = 8 + 16 * count
    if len(data) != expected:
        raise OSError(f"{path}: expected {expected} bytes, got {len(data)}")
    records = np.frombuffer(data, dtype="<f4", offset=8).reshape(count, 4)
    try:
        return PointCloud(records[:, :3].astype(np.float64), records[:, 3].astype(np.float64))
    except ValueError as exc:  # a non-finite record
        raise ValueError(f"{path}: {exc}") from exc


def save_range_image_pgm(img: RangeImage, path) -> None:
    """16-bit binary PGM in millimeters, 0 for no return; makes the parent dir."""
    mm = np.where(img.valid_mask(),
                  np.clip(np.rint(img.ranges * 1000.0), 1, 65535), 0).astype(">u2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.W} {img.H}\n65535\n".encode("ascii"))
        fh.write(mm.tobytes())


def _agent_type_to_json(agent_type: AgentType):
    if AGENT_TYPES.get(agent_type.name) == agent_type:
        return agent_type.name
    return {
        "name": agent_type.name,
        "beams": agent_type.beams,
        "range_m": agent_type.range_m,
        "fov_deg": list(agent_type.fov_deg),
        "range_error_m": agent_type.range_error_m,
        "realism": agent_type.realism,
        "agent_class": agent_type.agent_class,
    }


def save_manifest(group: CooperativeGroup, out_dir, ground_z: float = 0.0,
                  boxes: np.ndarray | None = None) -> Path:
    """Write manifest.json plus one cloud file per agent into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    box_list = [] if boxes is None else [
        {"center": list(map(float, b[:3])), "half_extents": list(map(float, b[3:]))}
        for b in np.asarray(boxes).reshape(-1, 6)
    ]
    agents = []
    for agent in group.agents:
        cloud_path = f"{agent.id}.pcv"
        save_cloud(agent.cloud, out_dir / cloud_path)
        yaw, pitch, roll = agent.pose.to_ypr()
        agents.append({
            "id": agent.id,
            "type": _agent_type_to_json(agent.agent_type),
            "pose": {
                "yaw_pitch_roll_rad": [yaw, pitch, roll],
                "translation": list(map(float, agent.pose.translation)),
            },
            "cloud_path": cloud_path,
            "is_ego": agent.is_ego,
        })
    doc = {"version": MANIFEST_VERSION, "ground_z": float(ground_z),
           "boxes": box_list, "agents": agents}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _read_json(path):
    """The JSON document in the file at `path`; ValueError naming it if not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"{path}: {exc}") from exc


def _numbers(values, n: int) -> bool:
    """Whether `values` is a JSON list of n finite numbers. JSON reads NaN,
    Infinity and 1e400 as floats, and an integer can be too large for one."""
    return isinstance(values, list) and len(values) == n and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)


def _agent_entry(entry, where: str):
    """(id, pose, agent type, cloud_path, is_ego) of one manifest agent entry,
    or a ValueError that starts with `where`. The id must be a plain file name
    and the cloud path stay inside the manifest directory."""
    entry = entry if isinstance(entry, dict) else {}
    ident, kind, pose, cloud = (entry.get(f) for f in ("id", "type", "pose", "cloud_path"))
    custom = isinstance(kind, dict)
    if custom:
        numbers = [kind.get(f) for f in ("beams", "range_m", "range_error_m")]
        name, realism, agent_class = (kind.get(f, default) for f, default in (
            ("name", "custom"), ("realism", "Sim"), ("agent_class", "Vehicle")))
    if not (isinstance(ident, str) and isinstance(cloud, str)
            and type(entry.get("is_ego")) is bool and isinstance(pose, dict)
            and _numbers(pose.get("yaw_pitch_roll_rad"), 3)
            and _numbers(pose.get("translation"), 3)
            and (isinstance(kind, str) or custom and _numbers(numbers, 3)
                 and float(numbers[0]).is_integer() and _numbers(kind.get("fov_deg"), 2)
                 and all(isinstance(v, str) for v in (name, realism, agent_class)))):
        raise ValueError(f"{where} needs an id, type, pose, cloud_path and is_ego")
    if Path(ident).name != ident or Path(cloud).is_absolute() or ".." in Path(cloud).parts:
        raise ValueError(f"{where}: id or cloud_path leaves the manifest directory")
    if not custom and kind not in AGENT_TYPES:
        raise ValueError(f"{where}: unknown agent type {kind!r}")
    try:
        agent_type = AGENT_TYPES[kind] if not custom else AgentType(
            name, int(numbers[0]), float(numbers[1]), tuple(kind["fov_deg"]),
            float(numbers[2]), realism, agent_class)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    pose = RigidTransform.from_ypr(*pose["yaw_pitch_roll_rad"], translation=pose["translation"])
    return ident, pose, agent_type, cloud, entry["is_ego"]


def load_manifest(path) -> tuple[CooperativeGroup, dict]:
    """Load a manifest and its referenced clouds; returns (group, scene metadata).
    Every agent entry is checked before any cloud is read."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: not a version {MANIFEST_VERSION} manifest object")
    ground_z, boxes, entries = doc.get("ground_z", 0.0), doc.get("boxes", []), doc.get("agents")
    if not (_numbers([ground_z], 1) and isinstance(entries, list)
            and isinstance(boxes, list) and all(isinstance(b, dict) and _numbers(
                b.get("center"), 3) and _numbers(b.get("half_extents"), 3) for b in boxes)):
        raise ValueError(f"{path}: needs a list of agents, a number ground_z "
                         "and center/half_extents boxes")
    parsed = [_agent_entry(entry, f"{path}: agent {k}") for k, entry in enumerate(entries)]
    agents = tuple(Agent(ident, pose, load_cloud(path.parent / cloud), agent_type, is_ego)
                   for ident, pose, agent_type, cloud, is_ego in parsed)
    return CooperativeGroup(agents), {"ground_z": float(ground_z), "boxes": boxes}


def load_pmf(path) -> CountDistribution:
    """The count distribution in a JSON object of "count": probability. Counts
    are ASCII digits below 2**63 - 1."""
    doc = _read_json(path)
    if not (isinstance(doc, dict) and _numbers(list(doc.values()), len(doc)) and all(
            k.isascii() and k.isdigit() and len(k) < 20 and int(k) < 2**63 - 1 for k in doc)):
        raise ValueError(f"{path}: not an object of count: probability")
    try:
        return CountDistribution({int(k): float(v) for k, v in doc.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
