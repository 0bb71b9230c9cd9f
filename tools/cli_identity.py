"""Byte-identity check of the coopaug CLI over a fixed command matrix.

    python tools/cli_identity.py SRC OUT [--list]

Imports `coopaug` from SRC (the `src` directory of a checkout), runs the
matrix below through `coopaug.cli.main` with every output under OUT (which
must not exist yet), and prints one sha256 over the output files, stdout,
stderr and exit code of every command, with OUT replaced by a placeholder.
Two checkouts whose CLI behaves the same print the same digest. `--list`
first prints one line per command: its label, exit code and own sha256, so
two listings diff to the commands that changed. Every command shows each
warning it raises, by category and message, as if it ran alone.

`tools/cli_identity.list` is the listing of the current code, and
`tests/test_cli_identity.py` checks it line by line. A change that alters
output on purpose re-records it and names the changed labels:

    python tools/cli_identity.py src OUT --list > tools/cli_identity.list

The digest must not depend on the CPU. To check that on one x86-64 host, run
the tool four times, each with a new OUT: as it is, then with the kernels a
CPU without AVX-512 gets, set for that one process:

    OPENBLAS_CORETYPE=Prescott python tools/cli_identity.py SRC OUT2
    OPENBLAS_CORETYPE=Haswell python tools/cli_identity.py SRC OUT3
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        python tools/cli_identity.py SRC OUT4

All four print the same digest. Haswell's kernels need AVX2 and FMA.

The matrix: `simulate` on four scenes (one with type E and 32 boxes);
`augment` and `cfc-check` for the four table sources and three seeds on each
scene, then `cfc-check --seed 0` and `augment --seed 3` with the same source on
each `augment` output, whose mixup agent stands at its donor's pose;
`cfc-check --no-aug`; `project` of every agent cloud at widths 512 and
2048, at its own type and, for type E and type A clouds, also as the other
of the two, so pixel collisions reach the output directly (exact equal-range
ties do not occur in these clouds; the oracle tests cover them); `gate-stats`
for the four sources; and the error paths, among them
`augment` and `cfc-check` on manifests whose group is invalid (two egos, a
repeated id), on malformed manifests (a NaN translation with 2 and with 3
agents, finite translations whose distance overflows, a NaN ground_z, an
infinite box centre, a custom type with `beams` 1e400, 16.5, 0, 10**12, 2**63
or 1e300, or with a reversed `fov_deg` or one of -1e300 to 1e300, an unknown
type name on an agent whose cloud is missing, text that is not JSON, not
UTF-8 or nested 100,000 deep), and on manifests
whose cloud path or ego id leaves its directory; `augment` on pmf files that
are a list, not JSON, sum to 0.5, hold count 0, a 20-digit count or a
401-digit probability, and `gate-stats` on the last four; `gate-stats
--dist-file` with a table source; `project` on clouds with bad magic, cut
short, with bytes after their records, or holding a NaN coordinate or an
infinite intensity; `project --width 10**12`. Last, valid inputs the scenes
do not reach: `simulate`, `augment` and `cfc-check` on one agent, which
`cmag` passes through; `augment` and
`cfc-check` on a manifest whose ego has a custom type, then `cfc-check` on the
`augment` output, which saves that type in full; the same on two agents
3 m apart near x = 1.7e308, whose midpoint must not overflow; `simulate`
of all five types with 32 boxes at two more seeds, so the ray cast's column
culling meets many more box wedges and the +-pi seam; and `augment` and
`cfc-check` on two agents with dense clouds (see DENSE_PAIRS): at seeds 10, 5,
1 and 8 of custom 16- and 128-beam types, which re-beam at and beside
target == H; at seeds 5, 6 and 0 of custom 1- and 40-beam types, which
upsample to targets no multiple of H; and at seeds 2 and 0 of type B, which
upsample 32 beams to 64 and to 40. Then `augment` at seeds 1 and 3 of the
two-agent scene whose clouds each hold one point near float32's maximum (see
write_float32_overflow): seed 1's mixup cloud holds a value float32 cannot,
which `save_cloud` refuses, and `cfc-check --no-aug` on seed 3's output.
Then `gate-stats` on a pmf file that sums to just under 1 (SHORT_PMF), within
the tolerance of a valid pmf. Last, `augment --seed 0`, `cfc-check --seed 0` and `cfc-check --no-aug` on three
agents whose second holds an empty (count-0) cloud, which the mixup pair cuts
and every occupancy grid and early fusion meets.
"""

import contextlib
import hashlib
import io
import json
import math
import struct
import sys
import warnings
from pathlib import Path

SCENES = (("A,B", 4, 0), ("A,B,C,D", 10, 1), ("C,E,A", 32, 2), ("E,D,B,A,C", 10, 3))
# Scenes only simulated: (types, seed), each with 32 boxes.
SIMULATE_ONLY = (("A,B,C,D,E", 11), ("E,D,C,B,A", 12))
SOURCES = ("opv2v", "v2xset", "v2v4real", "dairv2x")
SEEDS = (0, 1, 7)
WIDTHS = (512, 2048)
# Types each agent type's cloud is also projected as, beside its own.
CROSS_TYPES = {"E": ("A",), "A": ("E",)}
# Manifests with one edit, most of them to the second agent: (name, agents).
BAD_MANIFESTS = (("two-egos", 2), ("dup-ids", 2), ("nan-pose-2", 2), ("nan-pose-3", 3),
                 ("no-agents", 2), ("no-pose", 2), ("type-5", 2), ("agents-int", 2),
                 ("boxes-str", 2), ("top-level-array", 2), ("cloud-outside", 2),
                 ("escaped-id", 1), ("beams-1e400", 2), ("beams-fraction", 2),
                 ("nan-ground-z", 2), ("inf-box", 2), ("not-json", 2), ("not-utf8", 2),
                 ("deep-json", 2), ("unknown-type-missing-cloud", 2), ("beams-0", 2),
                 ("fov-reversed", 2), ("beams-huge", 2), ("overflowing-poses", 2),
                 ("beams-2p63", 2), ("beams-1e300", 2), ("fov-beyond-90", 2))
# Valid manifests built by the same edits: (name, agents).
GOOD_MANIFESTS = (("custom-ego", 2), ("far-pair", 2))
# Two-agent manifests of dense clouds (`dense_cloud`): each agent's type, a
# custom type of that many beams or a built-in type by name, and the seeds of
# `augment` and `cfc-check` on it, by the donor's beams H and the density
# target they draw.
DENSE_PAIRS = {
    # 10 (H 16, target 16) and 5 (H 128, target 128) re-beam at target == H,
    # the edge of density augmentation's `target <= H` branch; 1 (H 16,
    # target 32) takes the upsampling branch just past it, and 8 (H 128,
    # target 16) keeps 16 of 128 rows.
    "beams-16-128": ((16, 128), (10, 5, 1, 8)),
    # upsampling to targets no multiple of H: 5 (H 40, target 128) and 6
    # (H 40, target 64), whose last rows clip their upper neighbour at H - 1,
    # and 0 (H 1, target 40), where every row interpolates row 0 with itself
    "beams-1-40": ((1, 40), (5, 6, 0)),
    # type B upsampled: 2 (H 32, target 64 = 2H), every other row at an
    # integer s and the rest half way between two rows; 0 (H 32, target 40)
    "types-B-B": (("B", "B"), (2, 0)),
}
FLOAT32_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]
# pmf files for `--dist-file` that are not a count distribution: (name, text).
BAD_PMFS = (("list", "[0.5, 0.5]"), ("not-json", "{not json"), ("sum", '{"1": 0.5}'),
            ("count-0", '{"0": 1.0}'), ("20-digits", '{"99999999999999999999": 1.0}'),
            ("huge-probability", '{"1": 1' + "0" * 400 + "}"))
# A pmf that sums to 1 - 5e-10, within `CountDistribution`'s tolerance, so a valid source.
SHORT_PMF = '{"1": 0.5, "2": 0.4999999995}'
# Clouds of one non-finite record: (name, x, y, z, intensity).
BAD_CLOUDS = (("nan-coordinate", float("nan"), 0.5, 0.0, 1.0),
              ("inf-intensity", 10.0, 0.5, 0.0, float("inf")))


def matrix(out: Path):
    """(label, argv) pairs in run order; each command writes under out/label."""
    cmds = []
    for k, (types, boxes, seed) in enumerate(SCENES):
        scene = out / f"sim{k}"
        manifest = scene / "manifest.json"
        cmds.append((f"sim{k}", ["simulate", "--agents", len(types.split(",")),
                                 "--types", types, "--boxes", boxes, "--seed", seed,
                                 "--out", scene]))
        for source in SOURCES:
            for s in SEEDS:
                cmds.append((f"aug{k}-{source}-{s}",
                             ["augment", "--manifest", manifest, "--source-dist", source,
                              "--seed", s, "--out", out / f"aug{k}-{source}-{s}"]))
                cmds.append((f"cfc{k}-{source}-{s}",
                             ["cfc-check", "--manifest", manifest, "--source-dist", source,
                              "--seed", s]))
                augmented = out / f"aug{k}-{source}-{s}" / "manifest.json"
                cmds.append((f"cfc{k}-{source}-{s}-again",
                             ["cfc-check", "--manifest", augmented, "--source-dist", source,
                              "--seed", 0]))
                cmds.append((f"aug{k}-{source}-{s}-again",
                             ["augment", "--manifest", augmented, "--source-dist", source,
                              "--seed", 3, "--out", out / f"aug{k}-{source}-{s}-again"]))
        cmds.append((f"cfc{k}-no-aug", ["cfc-check", "--manifest", manifest, "--no-aug"]))
        for i, t in enumerate(types.split(",")):
            # each cloud at its own type; type E clouds also as type A, and
            # type A clouds as type E, whose 300 beams crowd pixels with points
            for as_type in (t, *CROSS_TYPES.get(t, ())):
                for w in WIDTHS:
                    label = f"proj{k}-{i}-{w}" if as_type == t else f"proj{k}-{i}-as-{as_type}-{w}"
                    cmds.append((label, ["project", "--cloud", scene / f"agent-{i}.pcv",
                                         "--type", as_type, "--width", w,
                                         "--out", out / label / "range.pgm"]))
    for source in SOURCES:
        cmds.append((f"gate-{source}", ["gate-stats", "--source-dist", source,
                                        "--seed", 1]))
    manifest = out / "sim0" / "manifest.json"
    bad = out / "bad"
    cmds += [
        ("err-no-command", []),
        ("err-types-count", ["simulate", "--agents", 2, "--types", "A",
                             "--out", out / "err-types-count"]),
        ("err-unknown-type", ["simulate", "--agents", 1, "--types", "Z",
                              "--out", out / "err-unknown-type"]),
        ("err-boxes-neg", ["simulate", "--agents", 1, "--types", "A", "--boxes", -1,
                           "--out", out / "err-boxes-neg"]),
        ("err-source", ["gate-stats", "--source-dist", "bogus"]),
        ("err-dist-file-flag", ["gate-stats", "--source-dist", "file"]),
        ("err-dist-file-missing", ["augment", "--manifest", manifest, "--source-dist", "file",
                                   "--dist-file", bad / "missing.json",
                                   "--out", out / "err-dist-file-missing"]),
        ("err-dist-file-table", ["gate-stats", "--source-dist", "opv2v",
                                 "--dist-file", bad / "missing.json"]),
        ("err-width-0", ["project", "--cloud", out / "sim0" / "agent-0.pcv", "--type", "A",
                         "--width", 0, "--out", out / "err-width-0" / "range.pgm"]),
        ("err-width-neg", ["project", "--cloud", out / "sim0" / "agent-0.pcv", "--type", "A",
                           "--width", -1, "--out", out / "err-width-neg" / "range.pgm"]),
        ("err-project-type", ["project", "--cloud", out / "sim0" / "agent-0.pcv",
                              "--type", "Q", "--out", out / "err-project-type" / "range.pgm"]),
        ("err-missing-cloud", ["project", "--cloud", bad / "missing.pcv", "--type", "A",
                               "--out", out / "err-missing-cloud" / "range.pgm"]),
        ("err-bad-magic", ["project", "--cloud", bad / "magic.pcv", "--type", "A",
                           "--out", out / "err-bad-magic" / "range.pgm"]),
        ("err-truncated", ["project", "--cloud", bad / "truncated.pcv", "--type", "A",
                           "--out", out / "err-truncated" / "range.pgm"]),
        ("err-trailing-bytes", ["project", "--cloud", bad / "trailing.pcv", "--type", "A",
                                "--out", out / "err-trailing-bytes" / "range.pgm"]),
        ("err-missing-manifest", ["cfc-check", "--manifest", bad / "missing.json"]),
        ("err-no-aug-source", ["cfc-check", "--manifest", manifest, "--no-aug",
                               "--source-dist", "bogus"]),
        ("project-new-dir", ["project", "--cloud", out / "sim0" / "agent-0.pcv", "--type", "A",
                             "--out", out / "project-new-dir" / "new" / "range.pgm"]),
    ]
    for name, _ in BAD_MANIFESTS:
        bad_manifest = bad / name / "manifest.json"
        cmds.append((f"err-{name}-aug", ["augment", "--manifest", bad_manifest,
                                         "--out", out / f"err-{name}-aug"]))
        cmds.append((f"err-{name}-cfc", ["cfc-check", "--manifest", bad_manifest]))
    for name, _ in BAD_PMFS:
        pmf = ["--source-dist", "file", "--dist-file", bad / f"{name}-pmf.json"]
        cmds.append((f"err-dist-file-{name}", ["augment", "--manifest", manifest, *pmf,
                                               "--out", out / f"err-dist-file-{name}"]))
        if name not in ("list", "not-json"):
            cmds.append((f"err-dist-file-{name}-gate", ["gate-stats", *pmf]))
    # allocates more than 2**47 bytes, which the allocator refuses outright
    cmds.append(("err-width-huge", ["project", "--cloud", out / "sim0" / "agent-0.pcv",
                                    "--type", "A", "--width", 10**12,
                                    "--out", out / "err-width-huge" / "range.pgm"]))
    for name, *_ in BAD_CLOUDS:
        cmds.append((f"err-{name}", ["project", "--cloud", bad / f"{name}.pcv", "--type", "A",
                                     "--out", out / f"err-{name}" / "range.pgm"]))
    single = out / "sim-single" / "manifest.json"
    cmds += [
        ("sim-single", ["simulate", "--agents", 1, "--types", "A", "--boxes", 4, "--seed", 5,
                        "--out", out / "sim-single"]),
        ("aug-single", ["augment", "--manifest", single, "--out", out / "aug-single"]),
        ("cfc-single", ["cfc-check", "--manifest", single]),
    ]
    for name, _ in GOOD_MANIFESTS:
        good_manifest = out / "good" / name / "manifest.json"
        cmds += [
            (f"{name}-aug", ["augment", "--manifest", good_manifest, "--out", out / f"{name}-aug"]),
            (f"{name}-cfc", ["cfc-check", "--manifest", good_manifest]),
            (f"{name}-aug-cfc", ["cfc-check", "--manifest",
                                 out / f"{name}-aug" / "manifest.json"]),
        ]
    for types, seed in SIMULATE_ONLY:
        cmds.append((f"sim-all-{seed}", ["simulate", "--agents", len(types.split(",")),
                                         "--types", types, "--boxes", 32, "--seed", seed,
                                         "--out", out / f"sim-all-{seed}"]))
    for name, (_, seeds) in DENSE_PAIRS.items():
        dense_manifest = out / "good" / name / "manifest.json"
        for seed in seeds:
            cmds += [
                (f"{name}-aug-{seed}", ["augment", "--manifest", dense_manifest, "--seed", seed,
                                        "--out", out / f"{name}-aug-{seed}"]),
                (f"{name}-cfc-{seed}", ["cfc-check", "--manifest", dense_manifest,
                                        "--seed", seed]),
            ]
    for seed in (1, 3):  # seed 1's output is refused, seed 3's is written
        cmds.append((f"float32-overflow-aug-{seed}",
                     ["augment", "--manifest", out / "good" / "float32-overflow" / "manifest.json",
                      "--seed", seed, "--out", out / f"float32-overflow-aug-{seed}"]))
    cmds.append(("float32-overflow-aug-3-cfc",
                 ["cfc-check", "--manifest", out / "float32-overflow-aug-3" / "manifest.json",
                  "--no-aug"]))
    cmds.append(("gate-pmf-short-of-one",
                 ["gate-stats", "--source-dist", "file", "--dist-file",
                  out / "good" / "short-pmf.json"]))
    empty = out / "good" / "empty-cloud" / "manifest.json"
    cmds += [
        ("empty-cloud-aug-0", ["augment", "--manifest", empty, "--seed", 0,
                               "--out", out / "empty-cloud-aug-0"]),
        ("empty-cloud-cfc-0", ["cfc-check", "--manifest", empty, "--seed", 0]),
        ("empty-cloud-cfc-no-aug", ["cfc-check", "--manifest", empty, "--no-aug"]),
    ]
    return cmds


def write_float32_overflow(cli, root: Path) -> None:
    """`simulate` of types A,B with 3 boxes at seed 1 into root, then one more
    point in each cloud at x = 0.999 x float32's maximum, at the y and z of
    its agent's sensor. The setup jitter can scale the mixup agent's copy of
    that point past float32's range."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", "--agents", "2", "--types", "A,B", "--boxes", "3", "--seed", "1",
                  "--out", str(root)])
    for agent in json.loads((root / "manifest.json").read_text())["agents"]:
        path = root / agent["cloud_path"]
        data = path.read_bytes()
        (count,) = struct.unpack("<I", data[4:8])
        _, y, z = agent["pose"]["translation"]
        path.write_bytes(data[:4] + struct.pack("<I", count + 1) + data[8:]
                         + struct.pack("<4f", 0.999 * FLOAT32_MAX, y, z, 1.0))


def dense_cloud(k: int) -> bytes:
    """A .pcv of 64 elevations from -30 to 15 degrees by 512 azimuths around
    agent k's sensor at (4k, 0, 0), at ranges of 10 to 28 m that step with the
    azimuth, so every row of a 16- or 128-beam image holds points."""
    records = []
    for i in range(64):
        el = math.radians(-30.0 + 45.0 * (i + 0.5) / 64)
        for j in range(512):
            az = 2.0 * math.pi * (j + 0.5) / 512
            r = 10.0 + 17.0 * (j % 7) / 6 + k
            records += [4.0 * k + r * math.cos(el) * math.cos(az),
                        r * math.cos(el) * math.sin(az), r * math.sin(el), (i + j) % 10 / 10]
    return b"PCV1" + struct.pack(f"<I{len(records)}f", len(records) // 4, *records)


def write_manifest(root: Path, name: str, n_agents: int) -> None:
    """A manifest of type A agents 4 m apart, each with a one-point cloud,
    then the edit `name` applied."""
    root.mkdir()
    agents = []
    for k in range(n_agents):
        (root / f"agent-{k}.pcv").write_bytes(
            b"PCV1" + struct.pack("<I4f", 1, 4.0 * k + 1.0, 0.5, 0.0, 1.0))
        agents.append({"id": f"agent-{k}", "type": "A", "cloud_path": f"agent-{k}.pcv",
                       "is_ego": k == 0, "pose": {"yaw_pitch_roll_rad": [0.0, 0.0, 0.0],
                                                  "translation": [4.0 * k, 0.0, 0.0]}})
    if name == "two-egos":
        agents[1]["is_ego"] = True
    elif name == "dup-ids":
        agents[1]["id"] = agents[0]["id"]
    elif name.startswith("nan-pose"):
        agents[1]["pose"]["translation"][0] = float("nan")
    elif name == "overflowing-poses":
        agents[0]["pose"]["translation"][0] = 1.7e308
        agents[1]["pose"]["translation"][0] = -1.7e308
    elif name == "far-pair":
        agents[0]["pose"]["translation"] = [1.7e308, 0.0, 0.0]
        agents[1]["pose"]["translation"] = [1.7e308, 3.0, 0.0]
    elif name == "empty-cloud":
        (root / "agent-1.pcv").write_bytes(b"PCV1" + struct.pack("<I", 0))
    elif name == "custom-ego":
        agents[0]["type"] = {"name": "X", "beams": 16, "range_m": 90.0,
                             "fov_deg": [-20.0, 10.0], "range_error_m": 0.01}
    elif name == "no-pose":
        del agents[1]["pose"]
    elif name == "type-5":
        agents[1]["type"] = 5
    elif name == "cloud-outside":
        agents[1]["cloud_path"] = "../outside/x.pcv"
    elif name == "escaped-id":
        agents[0]["id"] = "../escaped"
    elif name == "unknown-type-missing-cloud":
        agents[1]["type"] = "Z"
        (root / "agent-1.pcv").unlink()
    elif name in DENSE_PAIRS:
        for k, agent_type in enumerate(DENSE_PAIRS[name][0]):
            (root / f"agent-{k}.pcv").write_bytes(dense_cloud(k))
            agents[k]["type"] = agent_type if isinstance(agent_type, str) else {
                "name": f"X{agent_type}", "beams": agent_type, "range_m": 90.0,
                "fov_deg": [-25.0, 10.0], "range_error_m": 0.01}
    elif name in ("beams-huge", "beams-2p63", "beams-1e300"):
        for agent in agents:
            beams = {"beams-huge": 10**12, "beams-2p63": 2**63}.get(name, 1e300)
            agent["type"] = {"name": "X", "beams": beams, "range_m": 90.0,
                             "fov_deg": [-20.0, 10.0], "range_error_m": 0.01}
    elif name.startswith("beams") or name.startswith("fov"):
        beams = {"beams-fraction": 16.5, "beams-0": 0}.get(name, 16)
        fov = {"fov-reversed": [10.0, -20.0], "fov-beyond-90": [-1e300, 1e300]}.get(
            name, [-20.0, 10.0])
        agents[1]["type"] = {"name": "X", "beams": beams, "range_m": 90.0, "fov_deg": fov,
                             "range_error_m": 0.01}
    doc = {"version": "1", "ground_z": 0.0, "boxes": [], "agents": agents}
    if name == "no-agents":
        del doc["agents"]
    elif name == "agents-int":
        doc["agents"] = [1]
    elif name == "boxes-str":
        doc["boxes"] = "x"
    elif name == "top-level-array":
        doc = [doc]
    elif name == "nan-ground-z":
        doc["ground_z"] = float("nan")
    elif name == "inf-box":
        doc["boxes"] = [{"center": [float("inf"), 0.0, 0.5], "half_extents": [2.0, 1.0, 0.5]}]
    text = json.dumps(doc)
    if name == "beams-1e400":
        text = text.replace('"beams": 16', '"beams": 1e400')
    elif name == "not-json":
        text = "{not json"
    elif name == "deep-json":
        text = "[" * 100_000
    data = text.encode()
    if name == "not-utf8":
        data = data.replace(b"agent-1", b"agent-\xff")
    (root / "manifest.json").write_bytes(data)


def run(cli, label, argv, out: Path) -> tuple[int | str, bytes]:
    """Run one command; returns its exit code (or the exception that escaped
    main) and its sha256 over that, the streams and the files under out/label."""
    (out / label).mkdir(exist_ok=True)  # project-new-dir writes one level below it
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each command shows every warning it raises
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback out of main is an outcome to compare too
            code = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    # a warning's category and message, not its source file and line, which
    # differ between checkouts
    err = stderr.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    h = hashlib.sha256()
    root = str(out)
    for part in (label, " ".join(map(str, argv)), str(code), stdout.getvalue(), err):
        h.update(part.replace(root, "OUT").encode() + b"\0")
    target = out / label
    for path in sorted(p for p in target.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return code, h.digest()


def main(argv) -> int:
    listing = "--list" in argv
    args = [a for a in argv if a != "--list"]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    sys.path.insert(0, str(src))
    from coopaug import cli
    if Path(cli.__file__).resolve().parent != src / "coopaug":
        sys.exit(f"coopaug imported from {cli.__file__}, not from {src}")
    out.mkdir(parents=True)
    bad = out / "bad"
    bad.mkdir()
    (bad / "magic.pcv").write_bytes(b"NOPE\x00\x00\x00\x00")
    (bad / "truncated.pcv").write_bytes(b"PCV1\x02\x00\x00\x00" + b"\x00" * 16)
    (bad / "trailing.pcv").write_bytes(b"PCV1\x01\x00\x00\x00" + b"\x00" * 25)
    for name, n_agents in BAD_MANIFESTS:
        write_manifest(bad / name, name, n_agents)
    (out / "good").mkdir()
    for name, n_agents in GOOD_MANIFESTS:
        write_manifest(out / "good" / name, name, n_agents)
    for name in DENSE_PAIRS:
        write_manifest(out / "good" / name, name, 2)
    write_float32_overflow(cli, out / "good" / "float32-overflow")
    (out / "good" / "short-pmf.json").write_text(SHORT_PMF)
    write_manifest(out / "good" / "empty-cloud", "empty-cloud", 3)
    (bad / "outside").mkdir()
    (bad / "outside" / "x.pcv").write_bytes(b"PCV1" + struct.pack("<I4f", 1, 5.0, 0.5, 0.0, 1.0))
    for name, text in BAD_PMFS:
        (bad / f"{name}-pmf.json").write_text(text)
    for name, *record in BAD_CLOUDS:
        (bad / f"{name}.pcv").write_bytes(b"PCV1" + struct.pack("<I4f", 1, *record))
    total = hashlib.sha256()
    for label, cmd in matrix(out):
        code, digest = run(cli, label, cmd, out)
        total.update(digest)
        if listing:
            print(label, code, digest.hex())
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
