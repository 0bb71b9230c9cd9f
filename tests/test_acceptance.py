"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from coopaug import (AGENT_TYPES, AgentType, CmagConfig, CountDistribution,
                     RigidTransform, RngStream, Scene,
                     TABLE_DISTRIBUTIONS, bev_center, cfc_l1, cmag,
                     comprehensive_from_tables, density_augment, early_fuse,
                     fuse_grids, gate_responses, make_group, make_mixup_agent,
                     make_scene, nearest_pair, occupancy, project, rangeview,
                     simulate_lidar, split_line, unproject, apply_setup_aug,
                     SetupAugParams, gate)
from coopaug.mixup import SPLIT_ROTATION_RAD
from coopaug.cli import main as cli_main

from clouds import from_arrays

CHEAP = AgentType("Q", 2, 120.0, (-25.0, 5.0), 0.0, "Sim", "Vehicle")


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def one_gate_step(phi_s: CountDistribution, rng: RngStream, draws: int):
    """Draw group sizes from phi_s and apply one Plus/Keep/Minus step to each."""
    phi_c = comprehensive_from_tables()
    support = np.array(sorted(phi_s.pmf))
    probs = np.array([phi_s.pmf[k] for k in support])
    pre = support[np.searchsorted(np.cumsum(probs), rng.uniform(size=draws),
                                  side="right")]
    post = pre.copy()
    for n in np.unique(pre):
        lp, lk, _ = gate_responses(phi_s, phi_c, int(n)).likelihoods
        sel = pre == n
        u = rng.uniform(size=int(sel.sum()))
        post[sel] = n + np.where(u < lp, 1, np.where(u < lp + lk, 0, -1))
    return pre, post, phi_c


def empirical(values) -> CountDistribution:
    ks, cs = np.unique(values, return_counts=True)
    return CountDistribution({int(k): float(c) / len(values) for k, c in zip(ks, cs)})


def test_criterion_1_gate_hand_values():
    phi_s = TABLE_DISTRIBUTIONS["opv2v"]
    phi_c = comprehensive_from_tables()
    gate_responses(phi_s, phi_c, 2)  # warm up
    t0 = time.perf_counter()
    l2 = gate_responses(phi_s, phi_c, 2).likelihoods
    l4 = gate_responses(phi_s, phi_c, 4).likelihoods
    elapsed = time.perf_counter() - t0
    ok2 = max(abs(a - b) for a, b in zip(l2, (0.0, 0.7945, 0.2055))) <= 1e-3
    ok4 = l4 == (0.0, 1.0, 0.0)
    report(1, "gate hand-values", ok2 and ok4 and elapsed < 1e-3,
           f"N=2 {tuple(round(v, 4) for v in l2)}, N=4 {l4}, {elapsed * 1e3:.3f} ms")


def test_criterion_2_distribution_contraction(monkeypatch):
    t0 = time.perf_counter()
    rng = RngStream(0, "contraction")
    results = []
    for name, phi_s in TABLE_DISTRIBUTIONS.items():
        pre, post, phi_c = one_gate_step(phi_s, rng.derive(name), 100_000)
        tv_pre = empirical(pre).tv_distance(phi_c)
        tv_post = empirical(post).tv_distance(phi_c)
        results.append((name, tv_pre, tv_post, tv_post < tv_pre))
    # v2v4real never has N=3: Plus@N=2 exercises the unseen-count response,
    # which must be a proper share of the mass and independent of epsilon.
    phi_c = comprehensive_from_tables()
    responses = []
    for epsilon in (1e-6, 1e-3):
        monkeypatch.setattr(gate, "EPSILON", epsilon)
        responses.append(gate_responses(TABLE_DISTRIBUTIONS["v2v4real"], phi_c, 2))
    lp = responses[0].likelihoods[0]
    eps_free = responses[0] == responses[1]
    elapsed = time.perf_counter() - t0
    contracted = sum(r[3] for r in results)
    detail = ", ".join(f"{n} {a:.4f}->{b:.4f}" for n, a, b, _ in results)
    report(2, "distribution contraction 4/4 sources",
           contracted == 4 and 0.0 < lp < 1.0 and eps_free and elapsed < 10.0,
           f"{contracted}/4 contracted, v2v4real Plus@N=2 {lp:.4f}, "
           f"epsilon-free {eps_free}, {detail}")


def test_criterion_3_mixup_invariants():
    violations = 0
    for trial in range(1000):
        scene = make_scene(2, [CHEAP] * 3, RngStream(trial, "c3-scene"))
        group = make_group(scene, RngStream(trial, "c3-lidar"))
        pair = nearest_pair(group)
        a1, a2 = group.agents[pair[0]], group.agents[pair[1]]
        mirror = RngStream(trial, "c3-mix")
        rot = float(mirror.uniform(-SPLIT_ROTATION_RAD, SPLIT_ROTATION_RAD))
        line = split_line(bev_center(a1), bev_center(a2), rot)
        mix = make_mixup_agent(group, RngStream(trial, "c3-mix"), pair)
        out = mix.cloud.xyz
        # membership: every output row appears verbatim in one of the sources
        src = {r.tobytes() for r in a1.cloud.xyz} | {r.tobytes() for r in a2.cloud.xyz}
        if any(r.tobytes() not in src for r in out):
            violations += 1
            continue
        # brute-force side re-check with the raw cross product, point by point
        def sides(xy):
            return (line.direction[0] * (xy[:, 1] - line.anchor[1])
                    - line.direction[1] * (xy[:, 0] - line.anchor[0]))
        keep1 = sides(a1.cloud.xyz[:, :2]) >= 0.0
        k1 = int(keep1.sum())
        if not np.array_equal(out[:k1], a1.cloud.xyz[keep1]):
            violations += 1
            continue
        if np.any(sides(out[:k1, :2]) < 0.0) or np.any(sides(out[k1:, :2]) >= 0.0):
            violations += 1
    report(3, "mixup membership and side partition over 1000 groups",
           violations == 0, f"{violations} violations")


def test_criterion_4_range_view_round_trip():
    H, W = 64, 2048
    fov = (-25.0, 5.0)
    f_min, f_max = math.radians(fov[0]), math.radians(fov[1])
    f = f_max - f_min
    rng = np.random.default_rng(4)
    flat = rng.choice(H * W, size=1000, replace=False)
    rows, cols = flat // W, flat % W
    theta = math.pi * (1.0 - 2.0 * (cols + rng.uniform(0.05, 0.95, 1000)) / W)
    phi = f_max - f * (rows + rng.uniform(0.05, 0.95, 1000)) / H
    ranges = rng.uniform(2.0, 90.0, 1000)
    xyz = np.stack([ranges * np.cos(phi) * np.cos(theta),
                    ranges * np.cos(phi) * np.sin(theta),
                    ranges * np.sin(phi)], axis=1)
    img = project(from_arrays(xyz), fov, H, W)
    back = unproject(img)
    violations = 0
    if len(back) != 1000 or int(img.valid_mask().sum()) != 1000:
        violations += 1
    bx = back.xyz
    t_back = np.arctan2(bx[:, 1], bx[:, 0])
    p_back = np.arctan2(bx[:, 2], np.hypot(bx[:, 0], bx[:, 1]))
    # index the original angles by pixel to pair them with the scan-order output
    by_pixel = {(r, c): i for i, (r, c) in enumerate(zip(rows, cols))}
    vr, vc = np.nonzero(img.valid_mask())
    order = np.array([by_pixel[(r, c)] for r, c in zip(vr, vc)])
    # bitwise range oracle: the image must carry each input point's range
    # untouched, and the output must be exactly that range times the
    # pixel-center direction; any perturbation of the range breaks both
    src = xyz[order]
    r_in = np.sqrt(src[:, 0] * src[:, 0] + src[:, 1] * src[:, 1]
                   + src[:, 2] * src[:, 2])
    tc = math.pi * (1.0 - 2.0 * (vc + 0.5) / W)
    pc = f_max - f * (vr + 0.5) / H
    expected = np.stack([r_in * np.cos(pc) * np.cos(tc),
                         r_in * np.cos(pc) * np.sin(tc),
                         r_in * np.sin(pc)], axis=1)
    if np.any(img.ranges[vr, vc] != r_in):
        violations += 1
    if not np.array_equal(bx, expected):
        violations += 1
    if np.any(np.abs(t_back - theta[order]) > math.pi / W + 1e-12):
        violations += 1
    if np.any(np.abs(p_back - phi[order]) > f / H / 2.0 + 1e-12):
        violations += 1
    report(4, "range-view round trip on 1000 collision-free points",
           violations == 0, f"{violations} violations")


def test_criterion_5_beam_resampling_fidelity(monkeypatch):
    type64 = AGENT_TYPES["A"]
    type32 = AgentType("A32", 32, type64.range_m, type64.fov_deg,
                       type64.range_error_m, "Sim", "Vehicle")
    monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (32,))
    half_pitch = (type64.fov_deg[1] - type64.fov_deg[0]) / (type32.beams - 1) / 2.0
    native_elev = np.linspace(type64.fov_deg[0], type64.fov_deg[1], type32.beams)
    failures = []
    for trial in range(20):
        rng = RngStream(trial, "c5")
        n_boxes = int(rng.integers(4, 10))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n_boxes)
        rad = rng.uniform(8.0, 38.0, size=n_boxes)
        hz = rng.uniform(0.6, 0.9, size=n_boxes)
        boxes = np.stack([rad * np.cos(ang), rad * np.sin(ang), hz,
                          rng.uniform(1.8, 2.6, size=n_boxes),
                          rng.uniform(0.8, 1.1, size=n_boxes), hz], axis=1)
        pose = RigidTransform.from_ypr(float(rng.uniform(0, 2 * math.pi)),
                                       translation=(0.0, 0.0, 3.0))
        cloud64 = simulate_lidar(Scene(0.0, boxes, ((pose, type64),)), 0,
                                 rng.derive("l64"))
        cloud32 = simulate_lidar(Scene(0.0, boxes, ((pose, type32),)), 0,
                                 rng.derive("l32"))
        down = density_augment(cloud64, type64, rng.derive("da"))

        def per_beam(cloud):
            elev = np.degrees(np.arctan2(
                cloud.xyz[:, 2], np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])))
            ks, cs = np.unique(np.round(elev, 9), return_counts=True)
            return dict(zip(ks, cs))
        beams_d = per_beam(down)
        beams_n = per_beam(cloud32)
        for e_d, c_d in beams_d.items():
            near = native_elev[np.argmin(np.abs(native_elev - e_d))]
            if abs(near - e_d) > half_pitch:
                failures.append(f"trial {trial}: elevation {e_d:.4f} off grid")
                continue
            match = [c for e_n, c in beams_n.items() if abs(e_n - near) <= 1e-6]
            c_n = match[0] if match else 0
            if c_n == 0 or abs(c_d - c_n) > 0.1 * c_n:
                failures.append(f"trial {trial}: counts {c_d} vs {c_n} at {near:.2f}")
        for e_n, c_n in beams_n.items():
            if not any(abs(e_d - e_n) <= half_pitch for e_d in beams_d):
                failures.append(f"trial {trial}: native beam {e_n:.2f} unmatched")
    report(5, "beam-resampling fidelity over 20 scenes",
           not failures, failures[0] if failures else "all beams matched")


def inbounds_scene(n_agents: int, rng: RngStream) -> Scene:
    """Random scene whose agents all sit inside the occupancy grid."""
    placements = []
    centers = []
    while len(placements) < n_agents:
        xy = rng.uniform(-25.0, 25.0, size=2)
        if any(np.hypot(*(xy - c)) < 5.0 for c in centers):
            continue
        centers.append(xy)
        pose = RigidTransform.from_ypr(float(rng.uniform(0, 2 * math.pi)),
                                       translation=(xy[0], xy[1], 2.0))
        placements.append((pose, CHEAP))
    n_boxes = 3
    ang = rng.uniform(0.0, 2.0 * math.pi, size=n_boxes)
    rad = rng.uniform(6.0, 12.0, size=n_boxes)
    hz = rng.uniform(0.6, 0.9, size=n_boxes)
    boxes = np.stack([rad * np.cos(ang), rad * np.sin(ang), hz,
                      rng.uniform(1.8, 2.6, size=n_boxes),
                      rng.uniform(0.8, 1.1, size=n_boxes), hz], axis=1)
    return Scene(0.0, boxes, tuple(placements))


def test_criterion_6_consistency_identity_and_sensitivity():
    zero_bad = 0
    sensitive = 0
    for trial in range(100):
        scene = inbounds_scene(2 + trial % 3, RngStream(trial, "c6-scene"))
        group = make_group(scene, RngStream(trial, "c6-lidar"))
        base = occupancy(early_fuse(group))
        fused = fuse_grids([occupancy(a.cloud) for a in group.agents])
        if cfc_l1(fused, base) != 0.0:
            zero_bad += 1
        out = cmag(group, TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(),
                   CmagConfig(), RngStream(trial, "c6-aug"))
        fused2 = fuse_grids([occupancy(a.cloud) for a in out.agents])
        if cfc_l1(fused2, base) > 0.0:
            sensitive += 1
    report(6, "occupancy consistency identity and sensitivity",
           zero_bad == 0 and sensitive >= 95,
           f"{zero_bad} nonzero identities, sensitive on {sensitive}/100")


def test_criterion_7_perturbation_composition():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        cloud = from_arrays(rng.uniform(-40, 40, size=(n, 3)),
                            rng.uniform(0, 1, size=n))
        ident = apply_setup_aug(cloud, SetupAugParams(0.0, 1.0, np.zeros(3)))
        if not (np.array_equal(ident.xyz, cloud.xyz)
                and np.array_equal(ident.intensity, cloud.intensity)):
            violations += 1
            continue
        d0 = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None, :], axis=2)
        rot = apply_setup_aug(cloud, SetupAugParams(float(rng.uniform(-3, 3)), 1.0,
                                                    np.zeros(3)))
        d1 = np.linalg.norm(rot.xyz[:, None] - rot.xyz[None, :], axis=2)
        if np.abs(d1 - d0).max() > 1e-9:
            violations += 1
            continue
        s = float(rng.uniform(0.5, 1.5))
        scaled = apply_setup_aug(cloud, SetupAugParams(0.0, s, np.zeros(3)))
        d2 = np.linalg.norm(scaled.xyz[:, None] - scaled.xyz[None, :], axis=2)
        if np.abs(d2 - s * d0).max() > 1e-9:
            violations += 1
    report(7, "perturbation composition over 1000 clouds",
           violations == 0, f"{violations} violations")


def test_criterion_8_cli_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc = cli_main(["simulate", "--agents", "3", "--types", "A,B,C",
                       "--boxes", "6", "--seed", "11", "--out", str(tmp / "sim")])
        assert rc == 0
        manifest = str(tmp / "sim" / "manifest.json")
        trees = []
        for name in ("r1", "r2", "r3"):
            rc = cli_main(["augment", "--manifest", manifest, "--seed", "5",
                           "--out", str(tmp / name)])
            assert rc == 0
            root = tmp / name
            trees.append({p.relative_to(root).as_posix(): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        ok = trees[0] == trees[1] == trees[2]
    report(8, "byte-identical augment output across reruns", ok,
           f"{len(trees[0])} files compared")
