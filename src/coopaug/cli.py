"""Command-line interface: simulate, augment, gate-stats, project, cfc-check."""

import argparse
import sys

import numpy as np

from .gate import TABLE_DISTRIBUTIONS, comprehensive_from_tables, gate_responses, gate_step
from .io import load_cloud, load_manifest, load_pmf, save_manifest, save_range_image_pgm
from .model import AGENT_TYPES, CmagConfig, CountDistribution, RngStream
from .pipeline import cfc_score, cmag
from .rangeview import AZIMUTH_BINS, project as project_cloud
from .sim import make_group, make_scene


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _load_source_dist(name: str, dist_file: str | None) -> CountDistribution:
    if name in TABLE_DISTRIBUTIONS:
        if dist_file is not None:
            raise ValueError(f"--dist-file is read only with --source-dist file, not {name}")
        return TABLE_DISTRIBUTIONS[name]
    if name == "file":
        if not dist_file:
            raise ValueError("--source-dist file requires --dist-file")
        return load_pmf(dist_file)
    raise ValueError(f"unknown source distribution {name!r}")


def _augment(group, phi_s, args):
    """`cmag` with the table target, the source `phi_s` and `--seed`."""
    return cmag(group, phi_s, comprehensive_from_tables(), CmagConfig(),
                RngStream(args.seed, "augment"))


def _cmd_simulate(args) -> int:
    type_names = [t.strip().upper() for t in args.types.split(",") if t.strip()]
    if len(type_names) != args.agents:
        raise ValueError(f"--types lists {len(type_names)} types for {args.agents} agents")
    try:
        types = [AGENT_TYPES[t] for t in type_names]
    except KeyError as exc:
        raise ValueError(f"unknown agent type {exc}") from exc
    rng = RngStream(args.seed, "simulate")
    scene = make_scene(args.boxes, types, rng.derive("scene"))
    group = make_group(scene, rng=rng.derive("lidar"))
    manifest = save_manifest(group, args.out, ground_z=scene.ground_z, boxes=scene.boxes)
    print(f"wrote {manifest} ({group.n} agents, {args.boxes} boxes)")
    return 0


def _cmd_augment(args) -> int:
    group, meta = load_manifest(args.manifest)
    out = _augment(group, _load_source_dist(args.source_dist, args.dist_file), args)
    boxes = np.array([b["center"] + b["half_extents"] for b in meta["boxes"]]).reshape(-1, 6)
    manifest = save_manifest(out, args.out, ground_z=meta["ground_z"], boxes=boxes)
    print(f"wrote {manifest} (N {group.n} -> {out.n})")
    return 0


def _cmd_gate_stats(args) -> int:
    phi_s = _load_source_dist(args.source_dist, args.dist_file)
    phi_c = comprehensive_from_tables()
    counts = sorted(set(phi_s.pmf) | set(phi_c.pmf))
    print("count  phi_s     phi_c     r_plus       r_minus      L_plus   L_keep   L_minus")
    for n in counts:
        resp = gate_responses(phi_s, phi_c, n)
        lp, lk, lm = resp.likelihoods
        print(f"{n:5d}  {phi_s.prob(n):.6f}  {phi_c.prob(n):.6f}  "
              f"{resp.r_plus:<11.5g}  {resp.r_minus:<11.5g}  "
              f"{lp:.4f}   {lk:.4f}   {lm:.4f}")
    print(f"TV(pre, phi_c)  = {phi_s.tv_distance(phi_c):.6f}")
    print(f"TV(post, phi_c) = {gate_step(phi_s, phi_c).tv_distance(phi_c):.6f}")
    return 0


def _cmd_project(args) -> int:
    type_name = args.type.strip().upper()
    if type_name not in AGENT_TYPES:
        raise ValueError(f"unknown agent type {args.type!r}")
    agent_type = AGENT_TYPES[type_name]
    cloud = load_cloud(args.cloud)
    img = project_cloud(cloud, agent_type.fov_deg, agent_type.beams, args.width)
    save_range_image_pgm(img, args.out)
    print(f"wrote {args.out} ({img.H}x{img.W})")
    return 0


def _cmd_cfc_check(args) -> int:
    group, _ = load_manifest(args.manifest)
    phi_s = _load_source_dist(args.source_dist, args.dist_file)  # checked with --no-aug too
    generalized = group if args.no_aug else _augment(group, phi_s, args)
    print(f"{cfc_score(group, generalized):.1f}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="coopaug",
                     description="Cooperative LiDAR mixup augmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    source = _Parser(add_help=False)
    source.add_argument("--source-dist", default="opv2v")
    source.add_argument("--dist-file")
    source.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="generate a synthetic scene manifest")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--types", required=True, help="comma-separated agent types, e.g. A,B")
    p.add_argument("--boxes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("augment", parents=[source],
                       help="run the augmentation pipeline on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("gate-stats", parents=[source],
                       help="print gate responses and the exact one-step drift")
    p.set_defaults(func=_cmd_gate_stats)

    p = sub.add_parser("project", help="write a range-image PGM for a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--width", type=int, default=AZIMUTH_BINS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("cfc-check", parents=[source],
                       help="print the occupancy-consistency L1 value")
    p.add_argument("--manifest", required=True)
    p.add_argument("--no-aug", action="store_true")
    p.set_defaults(func=_cmd_cfc_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, least in (("width", 1), ("boxes", 0)):
            value = getattr(args, flag, least)
            if value < least:
                raise ValueError(f"--{flag} must be at least {least}, got {value}")
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
