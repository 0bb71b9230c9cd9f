"""The benchmark's workloads: generated inputs, op schedule, the op, its checks.

Each workload repeats a fixed cycle of ops. The workload seed changes the
generated scenes and the per-op seeds, never the mix of op kinds, so runs
with different seeds measure the same kind of work. Every call into the
program goes through a `coopaug.<module>` attribute at call time, so the
tracer's wrappers see it.
"""

import contextlib
import dataclasses
import hashlib
import io as stdio
import math
import random
import shutil
from pathlib import Path

import numpy as np

from coopaug import cli, gate, model, pipeline
from coopaug import io as cio

DISTS = tuple(sorted(gate.TABLE_DISTRIBUTIONS))
POOL_BOXES = 6


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed for one generated input, keyed by the workload seed."""
    state = np.random.SeedSequence([seed % 2**63, *keys]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def run_cli(argv):
    """`coopaug.cli.main` in-process; returns (exit code, stdout, stderr)."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def simulate(types: str, boxes: int, seed: int, out: Path) -> None:
    code, _, err = run_cli(["simulate", "--agents", len(types.split(",")), "--types", types,
                            "--boxes", boxes, "--seed", seed, "--out", out])
    if code != 0:
        raise CheckFailed(f"simulate {types} exited {code}: {err.strip()}")


def tree_digest(root: Path) -> bytes:
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.digest()


def group_digest(group: model.CooperativeGroup) -> bytes:
    h = hashlib.sha256()
    for a in group.agents:
        h.update(f"{a.id}|{a.agent_type.name}|{a.is_ego}".encode())
        h.update(a.pose.rotation.tobytes())
        h.update(a.pose.translation.tobytes())
        h.update(a.cloud.xyz.tobytes())
        h.update(a.cloud.intensity.tobytes())
    return h.digest()


def points(group: model.CooperativeGroup) -> int:
    return sum(len(a.cloud) for a in group.agents)


def check_group(group: model.CooperativeGroup) -> None:
    violation = model.validate_group(group)
    if violation is not None:
        raise CheckFailed(f"invalid group: {violation}")


# Group size change for each gate decision (keep replaces one pair member).
GATE_STEP = {gate.GateChoice.PLUS: 1, gate.GateChoice.KEEP: 0, gate.GateChoice.MINUS: -1}


@contextlib.contextmanager
def drawn_gates():
    """Records every gate decision `pipeline.cmag` draws while the block runs.

    The wrapper costs one extra Python call per cmag, microseconds in an op
    of tens of milliseconds, so ops record their own decisions while timed.
    """
    drawn = []
    original = pipeline.sample_gate

    def record(*args, **kwargs):
        choice = original(*args, **kwargs)
        drawn.append(choice)
        return choice

    pipeline.sample_gate = record
    try:
        yield drawn
    finally:
        pipeline.sample_gate = original


def check_gate_step(ids_before, after, drawn) -> None:
    """The output group is valid and its size changed as the drawn gate decision says."""
    check_group(after)
    if len(drawn) != 1:
        raise CheckFailed(f"{len(drawn)} gate decisions drawn for one cmag")
    n = len(ids_before)
    step = after.n - n
    if step != GATE_STEP[drawn[0]]:
        raise CheckFailed(f"group size {n} -> {after.n}, gate drew {drawn[0].value}")
    ids_after = {a.id for a in after.agents}
    added, removed = ids_after - set(ids_before), set(ids_before) - ids_after
    if len(added) != 1 or len(removed) != 1 - step:
        raise CheckFailed(f"size {n} -> {after.n} added {sorted(added)}, removed {sorted(removed)}")


class Workload:
    """Base: subclasses define the cycle, the op and its checks."""

    pool: tuple[str, ...] = ()  # agent types of each generated scene

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.seed = seed
        self.work = Path(work)
        self.smoke = smoke
        if smoke and self.pool:
            self.pool = ("B,C",)

    def pool_dir(self, i: int) -> Path:
        return self.work / "pool" / str(i)

    def generate(self) -> None:
        """Simulate the scenes the workload's inputs are built from (not timed)."""
        for i, types in enumerate(self.pool):
            simulate(types, 2 if self.smoke else POOL_BOXES, derive_seed(self.seed, 0, i),
                     self.pool_dir(i))

    def load_pool(self):
        return [cio.load_manifest(self.pool_dir(i) / "manifest.json")
                for i in range(len(self.pool))]

    def setup(self) -> None:
        """Load the inputs through the program's own load path."""

    def cycle_length(self) -> int:
        raise NotImplementedError

    def op(self, k: int) -> dict:
        """Op k of the schedule; k = -1 is the warm-up op, a fresh input of op 0's kind."""
        return {"k": k, "pos": max(k, 0) % self.cycle_length(),
                "seed": derive_seed(self.seed, 1, k + 1)}

    def prepare(self, op: dict) -> None:
        """Per-op input preparation (not timed)."""

    def run(self, op: dict):
        """The timed op."""
        raise NotImplementedError

    def check(self, op: dict, result) -> tuple[int, bytes]:
        """Checks the output; returns (points processed, bytes identifying the output)."""
        raise NotImplementedError

    def cleanup(self, op: dict) -> None:
        for key in ("in", "out"):
            if key in op:
                shutil.rmtree(op[key], ignore_errors=True)


class Simulate(Workload):
    """`coopaug simulate` over a cycle mixing types A-E with 10 and 32 boxes."""

    # (types, boxes); ray x box work per op varies about 5x across the cycle.
    CYCLE = (("B", 10), ("C", 32), ("D", 10), ("E", 10), ("A", 10),
             ("B,C", 32), ("C", 10), ("D", 32), ("A", 32))

    def cycle_length(self) -> int:
        return 1 if self.smoke else len(self.CYCLE)

    def op(self, k):
        op = super().op(k)
        op["types"], op["boxes"] = ("B", 2) if self.smoke else self.CYCLE[op["pos"]]
        op["out"] = self.work / "out" / str(k)
        return op

    def run(self, op):
        return run_cli(["simulate", "--agents", len(op["types"].split(",")),
                        "--types", op["types"], "--boxes", op["boxes"],
                        "--seed", op["seed"], "--out", op["out"]])

    def check(self, op, result):
        code, _, err = result
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()}")
        group, meta = cio.load_manifest(op["out"] / "manifest.json")
        check_group(group)
        types = [a.agent_type.name for a in group.agents]
        if types != op["types"].split(",") or len(meta["boxes"]) != op["boxes"]:
            raise CheckFailed(f"scene has types {types} and {len(meta['boxes'])} boxes")
        return points(group), tree_digest(op["out"])


class Augment(Workload):
    """In-memory `cmag` plus CFC scoring over a pool of simulated groups."""

    # Groups of 2-5 agents; two hold a 300-beam type E agent (~450k points).
    # Which two agents are nearest, and so mixed, follows the seed's scene;
    # mixed types only in pairs and one type in larger groups keep the op cost
    # the same for every seed.
    pool = ("E,B", "A,D", "C,E", "B,C", "C,C,C", "D,D,D,D", "B,B,B,B,B", "A,A,A")

    def setup(self):
        self.groups = [group for group, _ in self.load_pool()]
        self.phi_c = gate.comprehensive_from_tables()

    def cycle_length(self):
        return len(self.pool) * len(DISTS)

    def op(self, k):
        op = super().op(k)
        op["group"] = op["pos"] % len(self.pool)
        op["dist"] = DISTS[op["pos"] // len(self.pool)]
        return op

    def run(self, op):
        group = self.groups[op["group"]]
        seed = op["seed"]
        with drawn_gates() as op["drawn"]:
            out = pipeline.cmag(group, gate.TABLE_DISTRIBUTIONS[op["dist"]], self.phi_c,
                                model.CmagConfig(seed=seed), model.RngStream(seed, "augment"))
        early = pipeline.occupancy(pipeline.early_fuse(group))
        fused = pipeline.fuse_grids([pipeline.occupancy(a.cloud) for a in out.agents])
        return out, pipeline.cfc_l1(fused, early)

    def check(self, op, result):
        out, l1 = result
        group = self.groups[op["group"]]
        check_gate_step([a.id for a in group.agents], out, op["drawn"])
        if not (math.isfinite(l1) and l1 >= 0.0):
            raise CheckFailed(f"CFC L1 {l1}")
        return points(group), group_digest(out) + repr(l1).encode()


class CliRoundtrip(Workload):
    """`coopaug.cli.main` over distinct on-disk manifests, one fresh manifest per op."""

    # Mixed types only in pairs, as for Augment.
    pool = ("A,B", "C,D", "D,D,D", "B,B,B,B", "C,C,C", "A,C")
    # 8 of the 12 commands run cmag (40-70 ms) and 4 do not (10-20 ms), so the
    # median falls inside the slow group rather than on the gap between them.
    MIX = ("augment",) * 4 + ("cfc-check",) * 4 + ("cfc-check --no-aug",) * 2 \
        + ("project", "gate-stats")

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        mix = sorted(set(self.MIX)) if smoke else list(self.MIX)
        # The first command, also the warm-up op's, is always augment, so the
        # seed never changes what set-up does; the seed orders the rest.
        mix.remove("augment")
        self.mix = ["augment"] + random.Random(seed).sample(mix, len(mix))

    def setup(self):
        self.scenes = self.load_pool()

    def cycle_length(self):
        return len(self.mix)

    def op(self, k):
        op = super().op(k)
        # Each position of the cycle meets every scene and distribution in
        # turn, so no seed's command order pairs a command with one scene.
        cycle = max(k, 0) // self.cycle_length()
        op["kind"] = self.mix[op["pos"]]
        op["base"] = (op["pos"] + cycle) % len(self.pool)
        op["dist"] = DISTS[cycle % len(DISTS)]
        if op["kind"] != "gate-stats":
            op["in"] = self.work / "in" / str(k)
        op["out"] = self.work / "out" / str(k)
        return op

    def prepare(self, op):
        """Write a manifest no op has read: the base scene under a fresh rigid motion."""
        if "in" not in op:
            return
        group, meta = self.scenes[op["base"]]
        rng = np.random.default_rng(op["seed"])
        motion = model.RigidTransform.from_ypr(
            float(rng.uniform(-0.05, 0.05)), translation=(*rng.uniform(-0.5, 0.5, 2), 0.0))
        moved = model.CooperativeGroup(tuple(
            dataclasses.replace(a, pose=motion.compose(a.pose),
                                cloud=model.transform_cloud(a.cloud, motion, model.EGO_FRAME))
            for a in group.agents))
        boxes = np.array([b["center"] + b["half_extents"] for b in meta["boxes"]]).reshape(-1, 6)
        cio.save_manifest(moved, op["in"], ground_z=meta["ground_z"], boxes=boxes)
        agent = moved.agents[max(op["k"], 0) % moved.n]
        op["ids"] = [a.id for a in moved.agents]
        op["points"] = points(moved)
        op["cloud"] = (op["in"] / f"{agent.id}.pcv", agent.agent_type, len(agent.cloud))
        if op["kind"] == "project":
            op["out"].mkdir(parents=True, exist_ok=True)

    def run(self, op):
        with drawn_gates() as op["drawn"]:
            return self.command(op)

    def command(self, op):
        kind, seed = op["kind"], op["seed"]
        if kind == "gate-stats":
            return run_cli(["gate-stats", "--source-dist", op["dist"], "--seed", seed])
        if kind == "project":
            path, agent_type, _ = op["cloud"]
            return run_cli(["project", "--cloud", path, "--type", agent_type.name,
                            "--out", op["out"] / "range.pgm"])
        manifest = op["in"] / "manifest.json"
        if kind == "augment":
            return run_cli(["augment", "--manifest", manifest, "--source-dist", op["dist"],
                            "--seed", seed, "--out", op["out"]])
        if kind == "cfc-check":
            return run_cli(["cfc-check", "--manifest", manifest, "--source-dist", op["dist"],
                            "--seed", seed])
        return run_cli(["cfc-check", "--manifest", manifest, "--no-aug"])

    def check(self, op, result):
        code, stdout, err = result
        kind = op["kind"]
        if code != 0:
            raise CheckFailed(f"{kind} exited {code}: {err.strip()}")
        text = stdout.encode()
        if kind == "gate-stats":
            tv = [float(line.split("=")[1]) for line in stdout.splitlines()
                  if line.startswith("TV(")]
            if len(tv) != 2 or not all(0.0 <= v <= 1.0 for v in tv):
                raise CheckFailed(f"gate-stats TV lines {tv}")
            return 0, text
        if kind == "project":
            path, agent_type, n = op["cloud"]
            data = (op["out"] / "range.pgm").read_bytes()
            header = f"P5\n2048 {agent_type.beams}\n65535\n".encode()
            if not data.startswith(header) or len(data) != len(header) + 2 * 2048 * agent_type.beams:
                raise CheckFailed(f"PGM of {len(data)} bytes, header {data[:20]!r}")
            return n, data
        if kind == "augment":
            out, _ = cio.load_manifest(op["out"] / "manifest.json")
            check_gate_step(op["ids"], out, op["drawn"])
            return op["points"] + points(out), tree_digest(op["out"])
        value = float(stdout.strip().splitlines()[-1])
        if kind == "cfc-check --no-aug" and stdout.strip() != "0.0":
            raise CheckFailed(f"CFC identity: cfc-check --no-aug printed {stdout.strip()!r}")
        if not (math.isfinite(value) and value >= 0.0):
            raise CheckFailed(f"cfc-check printed {value}")
        return op["points"], text


WORKLOADS = {"simulate": Simulate, "augment": Augment, "cli_roundtrip": CliRoundtrip}
