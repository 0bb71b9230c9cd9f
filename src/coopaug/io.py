"""File formats: binary point clouds, PGM range images, JSON scene manifests."""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, IoFailure, TruncatedFile
from .model import (AGENT_TYPES, EGO_FRAME, Agent, AgentType, CooperativeGroup,
                    PointCloud, RigidTransform)
from .rangeview import RangeImage

CLOUD_MAGIC = b"PCV1"
MANIFEST_VERSION = "1"


def save_cloud(cloud: PointCloud, path) -> None:
    """Write magic, little-endian uint32 count, then float32 (x, y, z, i) records."""
    records = np.empty((len(cloud), 4), dtype="<f4")
    records[:, :3] = cloud.xyz
    records[:, 3] = cloud.intensity
    try:
        with open(path, "wb") as fh:
            fh.write(CLOUD_MAGIC)
            fh.write(struct.pack("<I", len(cloud)))
            fh.write(records.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_cloud(path) -> PointCloud:
    """Read a cloud written by save_cloud, in the ego frame."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if data[:4] != CLOUD_MAGIC:
        raise BadMagic(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 8:
        raise TruncatedFile(f"{path}: missing point count")
    (count,) = struct.unpack("<I", data[4:8])
    expected = 8 + 16 * count
    if len(data) < expected:
        raise TruncatedFile(f"{path}: expected {expected} bytes, got {len(data)}")
    records = np.frombuffer(data[8:expected], dtype="<f4").reshape(count, 4)
    if not np.isfinite(records).all():
        raise ValueError(f"{path}: non-finite point record")
    return PointCloud(records[:, :3].astype(np.float64),
                      records[:, 3].astype(np.float64), EGO_FRAME)


def save_range_image_pgm(img: RangeImage, path) -> None:
    """16-bit binary PGM in millimeters, 0 for no return; makes the parent dir."""
    mm = np.where(img.valid_mask(),
                  np.clip(np.rint(img.ranges * 1000.0), 1, 65535), 0).astype(">u2")
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(f"P5\n{img.W} {img.H}\n65535\n".encode("ascii"))
            fh.write(mm.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


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


def _agent_type_from_json(value) -> AgentType:
    if isinstance(value, str):
        if value not in AGENT_TYPES:
            raise ValueError(f"unknown agent type {value!r}")
        return AGENT_TYPES[value]
    return AgentType(name=value.get("name", "custom"), beams=int(value["beams"]),
                     range_m=float(value["range_m"]),
                     fov_deg=tuple(value["fov_deg"]),
                     range_error_m=float(value["range_error_m"]),
                     realism=value.get("realism", "Sim"),
                     agent_class=value.get("agent_class", "Vehicle"))


def save_manifest(group: CooperativeGroup, out_dir, ground_z: float = 0.0,
                  boxes: np.ndarray | None = None) -> Path:
    """Write manifest.json plus one cloud file per agent into out_dir."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
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
    try:
        manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return manifest_path


def _numbers(values, n: int) -> bool:
    """Whether `values` is a JSON list of n numbers."""
    return isinstance(values, list) and len(values) == n and all(
        type(v) in (int, float) for v in values)


def _shape_error(doc) -> str | None:
    """What is wrong with a manifest document's shape, or None. Agent ids must
    be plain file names, and cloud paths stay inside the manifest directory."""
    if not isinstance(doc, dict) or doc.get("version") != MANIFEST_VERSION:
        return f"not a version {MANIFEST_VERSION} manifest object"
    boxes = doc.get("boxes", [])
    if not (_numbers([doc.get("ground_z", 0.0)], 1) and isinstance(doc.get("agents"), list)
            and isinstance(boxes, list) and all(isinstance(b, dict) and _numbers(
                b.get("center"), 3) and _numbers(b.get("half_extents"), 3) for b in boxes)):
        return "needs a list of agents, a number ground_z and center/half_extents boxes"
    for k, entry in enumerate(doc["agents"]):
        entry = entry if isinstance(entry, dict) else {}
        pose, kind = entry.get("pose"), entry.get("type")
        if not (isinstance(entry.get("id"), str) and isinstance(entry.get("cloud_path"), str)
                and type(entry.get("is_ego")) is bool and isinstance(pose, dict)
                and _numbers(pose.get("yaw_pitch_roll_rad"), 3)
                and _numbers(pose.get("translation"), 3)
                and (isinstance(kind, str) or isinstance(kind, dict)
                     and _numbers([kind.get(f) for f in ("beams", "range_m", "range_error_m")], 3)
                     and _numbers(kind.get("fov_deg"), 2)
                     and all(isinstance(kind.get(f, ""), str)
                             for f in ("name", "realism", "agent_class")))):
            return f"agent {k} needs an id, type, pose, cloud_path and is_ego"
        cloud = Path(entry["cloud_path"])
        if Path(entry["id"]).name != entry["id"] or cloud.is_absolute() or ".." in cloud.parts:
            return f"agent {k}: id or cloud_path leaves the manifest directory"
    return None


def load_manifest(path) -> tuple[CooperativeGroup, dict]:
    """Load a manifest and its referenced clouds; returns (group, scene metadata)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    problem = _shape_error(doc)
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    agents = []
    for entry in doc["agents"]:
        ypr = entry["pose"]["yaw_pitch_roll_rad"]
        pose = RigidTransform.from_ypr(*ypr, translation=entry["pose"]["translation"])
        cloud = load_cloud(path.parent / entry["cloud_path"])
        agents.append(Agent(id=entry["id"], pose=pose, cloud=cloud,
                            agent_type=_agent_type_from_json(entry["type"]),
                            is_ego=entry["is_ego"]))
    meta = {"ground_z": float(doc.get("ground_z", 0.0)), "boxes": doc.get("boxes", [])}
    return CooperativeGroup(tuple(agents)), meta
