"""Byte-identity check of the coopaug CLI over a fixed command matrix.

    python tools/cli_identity.py SRC OUT [--list]

Imports `coopaug` from SRC (the `src` directory of a checkout), runs the
matrix below through `coopaug.cli.main` with every output under OUT (which
must not exist yet), and prints one sha256 over the output files, stdout,
stderr and exit code of every command, with OUT replaced by a placeholder.
Two checkouts whose CLI behaves the same print the same digest. `--list`
first prints one line per command: its label, exit code and own sha256, so
two listings diff to the commands that changed.

The matrix: `simulate` on four scenes (one with type E and 32 boxes);
`augment` and `cfc-check` for the four table sources and three seeds on each
scene; `cfc-check --no-aug`; `project` of every agent cloud at widths 512 and
2048; `gate-stats` for the four sources; and the error paths, among them
`augment` and `cfc-check` on manifests whose group is invalid (two egos, a
repeated id), on malformed manifests (a NaN translation with 2 and with 3
agents, a NaN ground_z, an infinite box centre, a custom type with `beams`
1e400 or 16.5, text that is not JSON, not UTF-8 or nested 100,000 deep), on
manifests whose cloud path or ego id leaves its directory, and on a pmf file
that is a list or not JSON; and `project` on clouds holding a NaN coordinate
or an infinite intensity.
"""

import contextlib
import hashlib
import io
import json
import struct
import sys
from pathlib import Path

SCENES = (("A,B", 4, 0), ("A,B,C,D", 10, 1), ("C,E,A", 32, 2), ("E,D,B,A,C", 10, 3))
SOURCES = ("opv2v", "v2xset", "v2v4real", "dairv2x")
SEEDS = (0, 1, 7)
WIDTHS = (512, 2048)
# Manifests with one edit, most of them to the second agent: (name, agents).
BAD_MANIFESTS = (("two-egos", 2), ("dup-ids", 2), ("nan-pose-2", 2), ("nan-pose-3", 3),
                 ("no-agents", 2), ("no-pose", 2), ("type-5", 2), ("agents-int", 2),
                 ("boxes-str", 2), ("top-level-array", 2), ("cloud-outside", 2),
                 ("escaped-id", 1), ("beams-1e400", 2), ("beams-fraction", 2),
                 ("nan-ground-z", 2), ("inf-box", 2), ("not-json", 2), ("not-utf8", 2),
                 ("deep-json", 2))
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
        cmds.append((f"cfc{k}-no-aug", ["cfc-check", "--manifest", manifest, "--no-aug"]))
        for i, t in enumerate(types.split(",")):
            for w in WIDTHS:
                label = f"proj{k}-{i}-{w}"
                cmds.append((label, ["project", "--cloud", scene / f"agent-{i}.pcv",
                                     "--type", t, "--width", w,
                                     "--out", out / label / "range.pgm"]))
    for source in SOURCES:
        cmds.append((f"gate-{source}", ["gate-stats", "--source-dist", source,
                                        "--iterations", 20000, "--seed", 1]))
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
        ("err-iterations-0", ["gate-stats", "--iterations", 0]),
        ("err-iterations-neg", ["gate-stats", "--iterations", -1]),
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
    for name in ("list", "not-json"):
        cmds.append((f"err-dist-file-{name}", ["augment", "--manifest", manifest,
                                               "--source-dist", "file", "--dist-file",
                                               bad / f"{name}-pmf.json",
                                               "--out", out / f"err-dist-file-{name}"]))
    for name, *_ in BAD_CLOUDS:
        cmds.append((f"err-{name}", ["project", "--cloud", bad / f"{name}.pcv", "--type", "A",
                                     "--out", out / f"err-{name}" / "range.pgm"]))
    return cmds


def write_bad_manifest(root: Path, name: str, n_agents: int) -> None:
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
    elif name == "no-pose":
        del agents[1]["pose"]
    elif name == "type-5":
        agents[1]["type"] = 5
    elif name == "cloud-outside":
        agents[1]["cloud_path"] = "../outside/x.pcv"
    elif name == "escaped-id":
        agents[0]["id"] = "../escaped"
    elif name.startswith("beams"):
        agents[1]["type"] = {"name": "X", "beams": 16.5 if name == "beams-fraction" else 16,
                             "range_m": 90.0, "fov_deg": [-20.0, 10.0], "range_error_m": 0.01}
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
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a traceback out of main is an outcome to compare too
            code = f"raised-{type(exc).__name__}"
            print(exc, file=sys.stderr)
    h = hashlib.sha256()
    root = str(out)
    for part in (label, " ".join(map(str, argv)), str(code),
                 stdout.getvalue(), stderr.getvalue()):
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
    for name, n_agents in BAD_MANIFESTS:
        write_bad_manifest(bad / name, name, n_agents)
    (bad / "outside").mkdir()
    (bad / "outside" / "x.pcv").write_bytes(b"PCV1" + struct.pack("<I4f", 1, 5.0, 0.5, 0.0, 1.0))
    (bad / "list-pmf.json").write_text("[0.5, 0.5]")
    (bad / "not-json-pmf.json").write_text("{not json")
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
