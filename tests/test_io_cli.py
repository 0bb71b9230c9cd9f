import contextlib
import dataclasses
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopaug import (AGENT_TYPES, Agent, AgentType, CooperativeGroup,
                     RangeImage, RigidTransform, load_cloud, load_manifest, save_cloud,
                     save_manifest, save_range_image_pgm)
from coopaug.cli import main
from coopaug.model import MAX_BEAMS, WORLD_BOUND_M

from clouds import from_arrays


def tree_bytes(root):
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def one_point_group(n_agents=2):
    """Type A agents 4 m apart, the first one ego, each with a one-point cloud."""
    return CooperativeGroup(tuple(
        Agent(f"agent-{k}", RigidTransform.from_ypr(0.0, translation=(4.0 * k, 0, 0)),
              from_arrays(np.array([[4.0 * k + 1.0, 0.5, 0.0]])),
              AGENT_TYPES["A"], k == 0) for k in range(n_agents)))


# Bad pmf files for `--dist-file`, by test case.
BAD_PMFS = {"dist-file-list": "[0.5, 0.5]", "dist-file-not-json": "{not json",
            "dist-file-sum": '{"1": 0.5}', "dist-file-count-0": '{"0": 1.0}',
            "dist-file-20-digits": '{"99999999999999999999": 1.0}',
            "dist-file-huge-probability": '{"1": 1' + "0" * 400 + "}"}
FLOAT32_MAX = float(np.finfo(np.float32).max)
# A custom agent type; the tests edit its fields.
CUSTOM_TYPE = {"name": "X", "beams": 16, "range_m": 90.0, "fov_deg": [-20.0, 10.0],
               "range_error_m": 0.01}


def edit_manifest(manifest, edit):
    """Break the group in a saved manifest: a second ego, a repeated id, or a
    NaN translation, each on the second agent."""
    doc = json.loads(manifest.read_text())
    other = doc["agents"][1]
    if edit == "two-egos":
        other["is_ego"] = True
    elif edit == "duplicate-ids":
        other["id"] = doc["agents"][0]["id"]
    else:
        other["pose"]["translation"][0] = float("nan")
    manifest.write_text(json.dumps(doc))


class TestCloudFormat:
    def test_empty_cloud_is_eight_bytes(self, tmp_path):
        path = tmp_path / "e.pcv"
        save_cloud(from_arrays(np.zeros((0, 3))), path)
        data = path.read_bytes()
        assert len(data) == 8
        assert data == b"PCV1\x00\x00\x00\x00"
        assert len(load_cloud(path)) == 0

    def test_single_point_layout(self, tmp_path):
        path = tmp_path / "p.pcv"
        cloud = from_arrays(np.array([[1.0, 2.0, 3.0]]), np.array([0.5]))
        save_cloud(cloud, path)
        data = path.read_bytes()
        assert len(data) == 24
        assert np.array_equal(
            np.frombuffer(data[8:], dtype="<f4"), [1.0, 2.0, 3.0, 0.5])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(-50, 50, size=(333, 3)).astype(np.float32).astype(np.float64)
        intens = rng.uniform(0, 1, size=333).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.pcv"
        save_cloud(from_arrays(xyz, intens), path)
        back = load_cloud(path)
        assert np.array_equal(back.xyz, xyz)
        assert np.array_equal(back.intensity, intens)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcv"
        path.write_bytes(b"NOPE\x00\x00\x00\x00")
        with pytest.raises(OSError, match="bad magic"):
            load_cloud(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pcv"
        path.write_bytes(b"PCV1\x02\x00\x00\x00" + b"\x00" * 16)  # claims 2, holds 1
        with pytest.raises(OSError, match="expected 40 bytes, got 24"):
            load_cloud(path)

    def test_value_beyond_float32_refused(self, tmp_path):
        # no cloud holds a value float32 cannot: the cloud itself refuses it. A
        # cloud as far out as it may reach is written exactly, and its load is
        # refused, as every record beyond the world bound is.
        with pytest.raises(ValueError, match="point record not within"):
            from_arrays([[1.02 * FLOAT32_MAX, 0.0, 0.0]])
        path = tmp_path / "far.pcv"
        save_cloud(from_arrays([[10 * WORLD_BOUND_M, 0.0, -WORLD_BOUND_M]]), path)
        assert np.frombuffer(path.read_bytes(), "<f4", offset=8).tolist() == [
            10 * WORLD_BOUND_M, 0.0, -WORLD_BOUND_M, 1.0]
        with pytest.raises(ValueError) as refused:
            load_cloud(path)
        assert str(refused.value) == f"{path}: point record not within the world bound, ±1e+06"

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.pcv"
        save_cloud(from_arrays(np.ones((2, 3))), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 9)  # 2 records, then 9 more bytes
        with pytest.raises(OSError, match="expected 40 bytes, got 49"):
            load_cloud(path)


class TestPgm:
    def test_header_and_quantization(self, tmp_path):
        ranges = np.array([[0.0, 1.2345], [0.0004, 100.0]])
        img = RangeImage(ranges, np.zeros((2, 2)), (-25.0, 5.0))
        path = tmp_path / "r.pgm"
        save_range_image_pgm(img, path)
        data = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert data.startswith(header)
        pixels = np.frombuffer(data[len(header):], dtype=">u2").reshape(2, 2)
        assert pixels[0, 0] == 0           # no return stays 0
        assert pixels[0, 1] in (1234, 1235)
        assert pixels[1, 0] == 1           # sub-millimeter clamps to 1
        assert pixels[1, 1] == 65535       # saturates, never wraps

    def test_parent_that_is_a_file_is_io_failure(self, tmp_path):
        img = RangeImage(np.array([[2.0]]), np.zeros((1, 1)), (-25.0, 5.0))
        (tmp_path / "f").write_text("not a directory")
        with pytest.raises(OSError):
            save_range_image_pgm(img, tmp_path / "f" / "r.pgm")


class TestManifest:
    def make_group(self):
        custom = AgentType("X", 16, 90.0, (-20.0, 10.0), 0.01, "Sim", "Infra")
        c1 = from_arrays(np.array([[1.0, 0.0, 0.0]]), np.array([1.0]))
        c2 = from_arrays(np.array([[0.0, 2.0, 0.5]]), np.array([0.25]))
        ego = Agent("agent-0", RigidTransform.identity(), c1, AGENT_TYPES["A"], True)
        other = Agent("agent-1",
                      RigidTransform.from_ypr(0.3, 0.0, 0.0, translation=(4.0, -1.0, 0.2)),
                      c2, custom, False)
        return CooperativeGroup((ego, other))

    def test_round_trip(self, tmp_path):
        group = self.make_group()
        boxes = np.array([[3.0, 4.0, 0.7, 2.0, 1.0, 0.7]])
        manifest = save_manifest(group, tmp_path / "scene", ground_z=-0.1, boxes=boxes)
        back, meta = load_manifest(manifest)
        assert meta["ground_z"] == -0.1
        assert meta["boxes"][0]["center"] == [3.0, 4.0, 0.7]
        assert back.n == 2 and back.agents[0].is_ego
        for a, b in zip(group.agents, back.agents):
            assert a.id == b.id and a.is_ego == b.is_ego
            assert a.agent_type == b.agent_type
            assert np.allclose(a.pose.rotation, b.pose.rotation, atol=1e-12)
            assert np.allclose(a.pose.translation, b.pose.translation, atol=1e-12)
            assert np.allclose(a.cloud.xyz, b.cloud.xyz, atol=1e-6)

    def test_builtin_type_stored_by_name(self, tmp_path):
        save_manifest(self.make_group(), tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["agents"][0]["type"] == "A"
        assert isinstance(doc["agents"][1]["type"], dict)

    @pytest.mark.parametrize("edit,message", [("two-egos", "ego count = 2"),
                                              ("duplicate-ids", "duplicate agent ids"),
                                              ("nan-translation", "agent 1 needs")],
                             ids=["two-egos", "duplicate-ids", "nan-translation"])
    def test_rejects_invalid_group(self, edit, message, tmp_path):
        manifest = save_manifest(self.make_group(), tmp_path)
        edit_manifest(manifest, edit)
        with pytest.raises(ValueError, match=message):
            load_manifest(manifest)


class TestCli:
    def simulate(self, out, seed=0):
        rc = main(["simulate", "--agents", "3", "--types", "A,B,C",
                   "--boxes", "8", "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        return out / "manifest.json"

    def test_simulate_writes_manifest(self, tmp_path, capsys):
        manifest = self.simulate(tmp_path / "sim")
        assert manifest.exists()
        group, _ = load_manifest(manifest)
        assert group.n == 3
        assert "3 agents" in capsys.readouterr().out

    def test_simulate_deterministic(self, tmp_path):
        self.simulate(tmp_path / "a")
        self.simulate(tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_augment_deterministic(self, tmp_path):
        manifest = self.simulate(tmp_path / "sim")
        for name in ("x", "y"):
            rc = main(["augment", "--manifest", str(manifest), "--seed", "7",
                       "--source-dist", "opv2v", "--out", str(tmp_path / name)])
            assert rc == 0
        assert tree_bytes(tmp_path / "x") == tree_bytes(tmp_path / "y")
        group, _ = load_manifest(tmp_path / "x" / "manifest.json")
        assert sum(a.is_ego for a in group.agents) == 1

    @pytest.mark.parametrize("command,flag,value", [
        ("project", "--width", "0"), ("project", "--width", "-1"),
        ("simulate", "--boxes", "-1")])
    def test_numeric_argument_out_of_range_exits_one_before_output(
            self, command, flag, value, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        save_cloud(from_arrays(np.array([[10.0, 0.0, 0.0]])), pcv)
        out = tmp_path / "out"
        args = {"project": ["--cloud", str(pcv), "--type", "A", "--out", str(out)],
                "simulate": ["--agents", "1", "--types", "A", "--out", str(out)]}[command]
        rc = main([command, *args, flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    @pytest.mark.parametrize("edit,n_agents", [("two-egos", 2), ("duplicate-ids", 2),
                                               ("nan-translation", 2), ("nan-translation", 3)])
    def test_invalid_group_manifest_exits_one(self, command, edit, n_agents, tmp_path, capsys):
        manifest = save_manifest(one_point_group(n_agents), tmp_path / "in")
        edit_manifest(manifest, edit)
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest),
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        # a NaN is not a manifest number, so the shape check rejects it first
        expected = (f"error: {manifest}: agent 1 needs" if edit == "nan-translation"
                    else "error: invalid group: ")
        assert captured.out == "" and captured.err.startswith(expected)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    @pytest.mark.parametrize("case", ["no-agents", "no-pose", "type-5", "agents-int",
                                      "boxes-str", "top-level-array",
                                      "cloud-path-outside", "escaped-id", "beams-1e400",
                                      "beams-fraction", "nan-ground-z", "inf-box",
                                      "not-json", "not-utf8", "deep-json",
                                      "unknown-type-missing-cloud", "beams-0",
                                      "fov-reversed", "fov-beyond-90", *BAD_PMFS])
    def test_malformed_input_exits_one(self, case, command, tmp_path, capsys):
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        doc = json.loads(manifest.read_text())
        agents = doc["agents"]
        bad_file, extra = manifest, []
        if case == "no-agents":
            del doc["agents"]
        elif case == "no-pose":
            del agents[1]["pose"]
        elif case == "type-5":
            agents[1]["type"] = 5
        elif case == "agents-int":
            doc["agents"] = [1]
        elif case == "boxes-str":
            doc["boxes"] = "x"
        elif case == "top-level-array":
            doc = [doc]
        elif case in BAD_PMFS:
            bad_file = tmp_path / "pmf.json"
            bad_file.write_text(BAD_PMFS[case])
            extra = ["--source-dist", "file", "--dist-file", str(bad_file)]
        elif case == "cloud-path-outside":
            # a readable cloud outside the manifest directory
            save_cloud(from_arrays(np.array([[5.0, 0.5, 0.0]])),
                       tmp_path / "agent-1.pcv")
            agents[1]["cloud_path"] = "../agent-1.pcv"
        elif case == "escaped-id":
            # a lone ego passes augment unchanged, so its id names the saved cloud
            doc["agents"] = [dict(agents[0], id="../escaped")]
        elif case.startswith("beams"):
            beams = {"beams-fraction": 16.5, "beams-0": 0}.get(case, 16)
            agents[1]["type"] = dict(CUSTOM_TYPE, beams=beams)
        elif case == "fov-reversed":
            agents[1]["type"] = dict(CUSTOM_TYPE, fov_deg=[10.0, -20.0])
        elif case == "fov-beyond-90":
            agents[1]["type"] = dict(CUSTOM_TYPE, fov_deg=[-1e300, 1e300])
        elif case == "unknown-type-missing-cloud":
            # the type is checked before any cloud is read, so this is not an i/o error
            agents[1]["type"] = "Z"
            (manifest.parent / agents[1]["cloud_path"]).unlink()
        elif case == "nan-ground-z":
            doc["ground_z"] = float("nan")
        elif case == "inf-box":
            doc["boxes"] = [{"center": [float("inf"), 0.0, 0.5], "half_extents": [2.0, 1.0, 0.5]}]
        text = json.dumps(doc)
        if case == "beams-1e400":
            text = text.replace('"beams": 16', '"beams": 1e400')  # JSON reads it as inf
        elif case == "not-json":
            text = "{not json"
        elif case == "deep-json":
            text = "[" * 100_000  # deeper than the JSON decoder recurses
        data = text.encode()
        if case == "not-utf8":
            data = data.replace(b"agent-1", b"agent-\xff")
        manifest.write_bytes(data)
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest), *extra,
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert str(bad_file) in captured.err and "Traceback" not in captured.err
        assert not out.exists() and not (tmp_path / "escaped.pcv").exists()

    @pytest.mark.parametrize("case", list(BAD_PMFS))
    def test_bad_pmf_gate_stats_exits_one(self, case, tmp_path, capsys):
        pmf = tmp_path / "pmf.json"
        pmf.write_text(BAD_PMFS[case])
        rc = main(["gate-stats", "--source-dist", "file", "--dist-file", str(pmf)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {pmf}: ")

    # `project --width 10**12` asks numpy for more than 2**47 bytes, which the
    # allocator refuses without touching memory
    @pytest.mark.parametrize("case", ["project-width"])
    def test_allocation_too_large_exits_one(self, case, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        save_cloud(from_arrays(np.array([[10.0, 0.0, 0.0]])), pcv)
        out = tmp_path / "out"
        rc = main(["project", "--cloud", str(pcv), "--type", "A",
                   "--width", str(10**12), "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: Unable to allocate")
        assert not out.exists()

    # a custom type's beams are bounded before anything is allocated for them,
    # so the message is the same on every host
    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    @pytest.mark.parametrize("beams", [10**12, 2**63, 1e300], ids=["1e12", "2p63", "1e300"])
    def test_huge_beams_exits_one(self, beams, command, tmp_path, capsys):
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        doc = json.loads(manifest.read_text())
        for agent in doc["agents"]:  # whichever agent donates, its type is huge
            agent["type"] = dict(CUSTOM_TYPE, beams=beams)
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest),
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {manifest}: agent 0: beams must be at most {MAX_BEAMS}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    def test_range_beyond_world_bound_exits_one(self, command, tmp_path, capsys):
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        doc = json.loads(manifest.read_text())
        doc["agents"][1]["type"] = dict(CUSTOM_TYPE, range_m=math.nextafter(WORLD_BOUND_M, 2e6))
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest),
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {manifest}: agent 1: range_m and range_error_m must be "
                                "at most 1e+06 m\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("seed, rc", [(1, 1), (3, 0)])
    def test_augment_refuses_output_beyond_float32(self, seed, rc, tmp_path, capsys):
        # each cloud gets one more point at its sensor's y and z. At x = 0.999 x
        # float32's maximum, beyond the world bound, augment refuses the input,
        # naming the first cloud. At x = WORLD_BOUND_M it writes its output: at
        # seed 1 the setup jitter scales the mixup cloud's copy past the bound,
        # so loading that output is refused (rc 1), and at seed 3 it loads back.
        sim = tmp_path / "sim"
        assert main(["simulate", "--agents", "2", "--types", "A,B", "--boxes", "3",
                     "--seed", "1", "--out", str(sim)]) == 0
        group, _ = load_manifest(sim / "manifest.json")
        bound = "point record not within the world bound, ±1e+06"
        out = tmp_path / "out"
        for x in (0.999 * FLOAT32_MAX, WORLD_BOUND_M):
            for agent in group.agents:  # no cloud holds the first x: append its bytes
                path = sim / f"{agent.id}.pcv"
                save_cloud(agent.cloud, path)
                data = path.read_bytes()
                path.write_bytes(data[:4] + struct.pack("<I", len(agent.cloud) + 1) + data[8:]
                                 + struct.pack("<4f", x, *agent.pose.translation[1:], 1.0))
            capsys.readouterr()
            code = main(["augment", "--manifest", str(sim / "manifest.json"),
                         "--seed", str(seed), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (
                (1, f"error: {sim / 'agent-0.pcv'}: {bound}\n") if x > WORLD_BOUND_M else (0, ""))
        assert main(["cfc-check", "--manifest", str(out / "manifest.json"), "--no-aug"]) == rc
        assert capsys.readouterr().err == (f"error: {out / 'mixup-0.pcv'}: {bound}\n" if rc else "")

    @pytest.mark.parametrize("record", [[float("nan"), 0.5, 0.0, 1.0],
                                        [10.0, 0.5, 0.0, float("inf")]],
                             ids=["nan-coordinate", "inf-intensity"])
    def test_non_finite_cloud_exits_one(self, record, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        pcv.write_bytes(b"PCV1" + struct.pack("<I4f", 1, *record))
        out = tmp_path / "c.pgm"
        rc = main(["project", "--cloud", str(pcv), "--type", "A", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {pcv}: point record not within the world bound, ±1e+06\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    @pytest.mark.parametrize("record", [[0.0, 1e200, -1e199, 1.0], [0.0, 3e38, -3e37, 1.0]],
                             ids=["1e200", "3e38"])
    def test_cloud_beyond_world_bound_exits_one(self, record, command, tmp_path, capsys):
        # a point at (0, 1e200, -1e199), whose range squared overflows, would
        # make density_augment's output non-finite and cmag fail half way: no
        # cloud holds it. A .pcv stores it as (0, inf, -inf), and a record as
        # far out as float32 goes is refused too.
        with pytest.raises(ValueError, match="point record not within"):
            from_arrays([[0.0, 1e200, -1e199], [10.0, 0.0, -1.0]])
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        pcv = tmp_path / "in" / "agent-1.pcv"
        with np.errstate(over="ignore"):
            pcv.write_bytes(b"PCV1" + struct.pack("<I", 1) + np.array(record, "<f4").tobytes())
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest),
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {pcv}: point record not within the world bound, ±1e+06\n"
        assert captured.out == "" and not out.exists()

    def test_gate_stats_output(self, capsys):
        rc = main(["gate-stats", "--source-dist", "opv2v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TV(pre, phi_c)" in out and "TV(post, phi_c)" in out
        assert "r_plus" in out

    def test_gate_stats_same_for_every_seed(self, capsys):
        outs = []
        for seed in ("0", "9"):
            assert main(["gate-stats", "--source-dist", "v2xset", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_gate_stats_iterations_flag_is_gone(self, capsys):
        assert main(["gate-stats", "--iterations", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "--iterations" in captured.err

    @pytest.mark.parametrize("source", ["v2v4real", "dairv2x"])
    def test_gate_stats_step_contracts(self, source, capsys):
        rc = main(["gate-stats", "--source-dist", source])
        assert rc == 0
        tv = {line.split("=")[0].strip(): float(line.split("=")[1])
              for line in capsys.readouterr().out.splitlines() if line.startswith("TV(")}
        assert tv["TV(post, phi_c)"] < tv["TV(pre, phi_c)"]

    def test_gate_stats_pmf_short_of_one(self, tmp_path, capsys):
        # a pmf 5e-10 short of 1 is within CountDistribution's tolerance: a valid source
        pmf = tmp_path / "pmf.json"
        pmf.write_text('{"1": 0.5, "2": 0.4999999995}')
        rc = main(["gate-stats", "--source-dist", "file", "--dist-file", str(pmf)])
        assert rc == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if line.startswith("TV(")]) == 2

    def test_cfc_check_no_aug_is_zero(self, tmp_path, capsys):
        manifest = self.simulate(tmp_path / "sim")
        capsys.readouterr()
        rc = main(["cfc-check", "--manifest", str(manifest), "--no-aug"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.0"

    @pytest.mark.parametrize("source", ["bogus", "file"])
    def test_cfc_check_no_aug_rejects_bad_source(self, source, tmp_path, capsys):
        manifest = self.simulate(tmp_path / "sim")
        capsys.readouterr()
        rc = main(["cfc-check", "--manifest", str(manifest), "--no-aug",
                   "--source-dist", source])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and source in captured.err

    def test_project_writes_pgm(self, tmp_path, capsys):
        cloud = from_arrays(
            np.array([[10.0, 0.0, 0.0], [0.0, 5.0, 1.0]]), np.array([1.0, 0.5]))
        pcv = tmp_path / "c.pcv"
        save_cloud(cloud, pcv)
        out = tmp_path / "c.pgm"
        rc = main(["project", "--cloud", str(pcv), "--type", "B",
                   "--width", "512", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5\n512 32\n65535\n")

    def test_project_into_new_directory(self, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        save_cloud(from_arrays(np.array([[10.0, 0.0, 0.0]])), pcv)
        out = tmp_path / "missing" / "c.pgm"
        rc = main(["project", "--cloud", str(pcv), "--type", "B",
                   "--width", "512", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5\n512 32\n65535\n")

    @pytest.mark.parametrize("data, message", [
        (b"NOPE\x00\x00\x00\x00", "bad magic b'NOPE'"),
        (b"PCV1\x02\x00\x00\x00" + b"\x00" * 16, "expected 40 bytes, got 24"),
        (b"PCV1\x01\x00\x00\x00" + b"\x00" * 25, "expected 24 bytes, got 33"),
        (b"PCV1\x01\x00", "missing point count")],
        ids=["bad-magic", "truncated", "trailing-bytes", "short-count"])
    def test_corrupt_cloud_exit_two(self, data, message, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        pcv.write_bytes(data)
        rc = main(["project", "--cloud", str(pcv), "--type", "A",
                   "--out", str(tmp_path / "c.pgm")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"i/o error: {pcv}: {message}\n"

    @pytest.mark.parametrize("command", ["augment", "cfc-check"])
    def test_overflowing_pair_distance_exits_one(self, command, tmp_path, capsys):
        # finite translations whose distance overflowed to inf lie far beyond
        # the world bound, so the manifest is refused, naming the agent
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        doc = json.loads(manifest.read_text())
        for agent, x in zip(doc["agents"], (1.7e308, -1.7e308)):
            agent["pose"]["translation"][0] = x
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main([command, "--manifest", str(manifest),
                   *(["--out", str(out)] if command == "augment" else [])])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {manifest}: agent 0: translation beyond ±1e+06 m\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "cfc-check", "gate-stats"])
    def test_dist_file_with_table_source_exits_one(self, command, tmp_path, capsys):
        manifest = save_manifest(one_point_group(), tmp_path / "in")
        out = tmp_path / "out"
        args = {"augment": ["--manifest", str(manifest), "--out", str(out)],
                "cfc-check": ["--manifest", str(manifest)], "gate-stats": []}[command]
        rc = main([command, *args, "--source-dist", "opv2v",
                   "--dist-file", str(tmp_path / "missing.json")])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --dist-file") and "opv2v" in captured.err
        assert not out.exists()

    def test_usage_error_exit_one(self, capsys):
        rc = main(["gate-stats", "--source-dist", "bogus"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_types_count_mismatch_exit_one(self, tmp_path, capsys):
        rc = main(["simulate", "--agents", "2", "--types", "A",
                   "--out", str(tmp_path / "z")])
        assert rc == 1
        capsys.readouterr()
        rc = main(["simulate", "--agents", "0", "--types", "",
                   "--out", str(tmp_path / "z")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need one agent type per agent\n"
        assert not (tmp_path / "z").exists()

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["project", "--cloud", str(tmp_path / "nope.pcv"),
                   "--type", "A", "--out", str(tmp_path / "o.pgm")])
        assert rc == 2

    def test_out_under_a_file_exits_two(self, tmp_path, capsys):
        pcv = tmp_path / "c.pcv"
        save_cloud(from_arrays(np.array([[10.0, 0.0, 0.0]])), pcv)
        (tmp_path / "f").write_text("not a directory")
        rc = main(["project", "--cloud", str(pcv), "--type", "A",
                   "--out", str(tmp_path / "f" / "r.pgm")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("i/o error: ")
        assert str(tmp_path / "f") in captured.err

    def test_missing_manifest_exit_two(self, tmp_path, capsys):
        rc = main(["cfc-check", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 2


# One value of each JSON type: null, boolean, string, array, object, number.
JSON_VALUES = (None, True, "x", [0], {"k": 0}, 3)
# Numbers JSON reads as floats but a manifest never holds.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
DELETE = "delete the key"


def json_kind(value) -> str:
    """The JSON type of a value; ints and floats are both numbers."""
    return "number" if type(value) in (int, float) else type(value).__name__


def json_paths(value, path=()):
    """The path of every value in a JSON document, the root's () included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_paths(child, path + (key,))




# Values at the world bound, one float64 or float32 ulp past it, and at the farthest a
# cloud reaches.
BOUND_EDGES = [s * v for s in (-1.0, 1.0) for v in (
    WORLD_BOUND_M, math.nextafter(WORLD_BOUND_M, math.inf), WORLD_BOUND_M + 0.0625,
    10 * WORLD_BOUND_M)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1e7, 1e7) | st.sampled_from(BOUND_EDGES)] * 4),
                max_size=4))
@example([(WORLD_BOUND_M, -WORLD_BOUND_M, 0.0, 1.0)])
@example([(math.nextafter(WORLD_BOUND_M, math.inf), 0.0, 0.0, 1.0)])  # rounds to the bound
def test_every_cloud_save_cloud_accepts_loads_back(records):
    """save_cloud writes every cloud, and float32 holds each of its values. The
    load gives back those float32 values when each lies within the world bound,
    and otherwise refuses the file, naming it."""
    values = np.array(records, dtype=np.float64).reshape(-1, 4)
    as_float32 = values.astype(np.float32)
    within = (np.abs(as_float32) <= WORLD_BOUND_M).all()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.pcv"
        save_cloud(from_arrays(values[:, :3], values[:, 3]), path)
        assert np.frombuffer(path.read_bytes(), "<f4", offset=8).tobytes() == as_float32.tobytes()
        try:
            back = load_cloud(path)
        except ValueError as exc:
            assert str(exc) == f"{path}: point record not within the world bound, ±1e+06"
            assert not within
            return
    assert within
    assert back.xyz.tobytes() == as_float32[:, :3].astype(np.float64).tobytes()
    assert back.intensity.tobytes() == as_float32[:, 3].astype(np.float64).tobytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_manifest_exits_zero_one_or_two(data):
    """Delete one key of a valid manifest, give one of its values another JSON
    type, or make it NaN or infinite: augment and cfc-check still return 0, 1
    or 2 and never raise, and return 1 on a non-finite number."""
    ego, other = one_point_group().agents
    custom = AgentType("X", 16, 90.0, (-20.0, 10.0), 0.01, "Sim", "Infra")
    group = CooperativeGroup((ego, dataclasses.replace(other, agent_type=custom)))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_manifest(group, Path(tmp) / "in",
                                 boxes=np.array([[9.0, 9.0, 0.5, 2.0, 1.0, 0.5]]))
        doc = json.loads(manifest.read_text())
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else doc
        ops = [v for v in JSON_VALUES if json_kind(v) != json_kind(old)] + list(NON_FINITE)
        if path and isinstance(path[-1], str):
            ops.append(DELETE)
        op = data.draw(st.sampled_from(ops))
        if not path:
            doc = op
        elif op == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = op
        manifest = manifest.with_name("mutated.json")
        manifest.write_text(json.dumps(doc))
        for argv in (["augment", "--manifest", manifest, "--out", Path(tmp) / "out"],
                     ["cfc-check", "--manifest", manifest]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main([str(a) for a in argv])
            assert rc == 1 if op in NON_FINITE else rc in (0, 1, 2)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_pmf_and_cloud_bytes_exit_zero_one_or_two(data):
    """Replace, delete or insert one byte of a pmf file or of an agent's .pcv
    file, or cut it short: augment and cfc-check still return 0, 1 or 2 and
    never raise."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_manifest(one_point_group(), Path(tmp) / "in")
        pmf = Path(tmp) / "pmf.json"
        pmf.write_text('{"1": 0.25, "2": 0.75}')
        target = data.draw(st.sampled_from([pmf, manifest.parent / "agent-1.pcv"]))
        raw = target.read_bytes()
        target.unlink()  # rewriting a file in place can force a slow flush on ext4
        at = data.draw(st.integers(0, len(raw)))
        byte = bytes([data.draw(st.integers(0, 255))])
        op = data.draw(st.sampled_from(["replace", "delete", "insert", "cut"]))
        target.write_bytes({"replace": raw[:at] + byte + raw[at + 1:],
                            "delete": raw[:at] + raw[at + 1:],
                            "insert": raw[:at] + byte + raw[at:],
                            "cut": raw[:at]}[op])
        source = ["--source-dist", "file", "--dist-file", pmf]
        for argv in (["augment", "--manifest", manifest, *source, "--out", Path(tmp) / "out"],
                     ["cfc-check", "--manifest", manifest, *source]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main([str(a) for a in argv])
            assert rc in (0, 1, 2)
