import hashlib
import math

import numpy as np
import pytest

from coopaug import (AGENT_TYPES, Agent, CmagConfig, CooperativeGroup,
                     GateChoice, PointCloud, RigidTransform,
                     RngStream, TABLE_DISTRIBUTIONS, apply_setup_aug, bev_center,
                     cfc_l1, cfc_score, cmag, comprehensive_from_tables,
                     cut_and_combine, density_augment, early_fuse, fuse_grids,
                     load_manifest, make_group, make_scene, nearest_pair, occupancy,
                     pipeline, project, sample_setup_params, save_manifest, split_line,
                     transform_cloud, unproject, validate_group)

EMPTY = PointCloud.from_arrays(np.zeros((0, 3)))


def agent(aid, x=0.0, n_points=50, is_ego=False, seed=0):
    rng = np.random.default_rng(seed)
    xyz = rng.uniform(-15, 15, (n_points, 3))
    return Agent(id=aid, pose=RigidTransform.from_ypr(0.0, translation=(x, 0.0, 1.5)),
                 cloud=PointCloud.from_arrays(xyz, rng.uniform(0, 1, n_points)),
                 agent_type=AGENT_TYPES["A"], is_ego=is_ego)


def group(n=3):
    return CooperativeGroup(tuple(
        agent(f"a{i}", x=4.0 * i, is_ego=(i == 0), seed=i) for i in range(n)))


class TestEarlyFuse:
    def test_concatenation_order(self):
        g = CooperativeGroup((agent("e", n_points=100, is_ego=True),
                              agent("a", n_points=50, seed=1)))
        fused = early_fuse(g)
        assert len(fused) == 150
        assert np.array_equal(fused.xyz[:100], g.agents[0].cloud.xyz)

    def test_single_agent(self):
        g = CooperativeGroup((agent("e", is_ego=True),))
        assert np.array_equal(early_fuse(g).xyz, g.agents[0].cloud.xyz)

    def test_empty_cloud_member(self):
        empty = Agent("x", RigidTransform.identity(), EMPTY, AGENT_TYPES["A"], False)
        g = CooperativeGroup((agent("e", n_points=10, is_ego=True), empty))
        assert len(early_fuse(g)) == 10


class TestOccupancy:
    def test_empty_cloud(self):
        grid = occupancy(EMPTY)
        assert grid.shape == (352, 200) and grid.dtype == np.uint8
        assert grid.sum() == 0

    def test_single_center_point(self):
        grid = occupancy(PointCloud.from_arrays([[0.1, 0.1, 5.0]]))
        assert grid.sum() == 1

    def test_idempotent_per_cell(self):
        one = occupancy(PointCloud.from_arrays([[0.1, 0.1, 0.0]]))
        two = occupancy(PointCloud.from_arrays([[0.1, 0.1, 0.0], [0.2, 0.2, 9.0]]))
        assert np.array_equal(one, two)

    def test_outside_extent_ignored(self):
        grid = occupancy(PointCloud.from_arrays([[500.0, 0.0, 0.0]]))
        assert grid.sum() == 0

    def test_far_point_ignored_without_warning(self):
        # cell indices beyond the int64 range; pyproject turns warnings into errors
        grid = occupancy(PointCloud.from_arrays([[1e300, 0.1, 0.0], [0.1, -1e30, 0.0],
                                                 [0.1, 0.1, 0.0]]))
        assert grid.sum() == 1

    def test_half_open_cells(self):
        x_min, x_max, y_min, y_max = pipeline.GRID_EXTENT
        grid = occupancy(PointCloud.from_arrays([[x_min, y_min, 0.0], [x_max, y_max, 0.0]]))
        assert grid[0, 0] == 1 and grid.sum() == 1

    def test_matches_scalar_floor_oracle(self):
        # points exactly on cell edges and on the grid bounds, one ulp either
        # side of them, random points around the grid and points far outside,
        # against a point-by-point math.floor loop
        x_min, x_max, y_min, y_max = pipeline.GRID_EXTENT
        cell = pipeline.GRID_CELL_M
        nx, ny = math.ceil((x_max - x_min) / cell), math.ceil((y_max - y_min) / cell)
        edges_x = x_min + cell * np.arange(-2, nx + 3)
        edges_y = y_min + cell * np.arange(-2, ny + 3)
        xs = np.concatenate([edges_x, np.nextafter(edges_x, -np.inf),
                             np.nextafter(edges_x, np.inf), [x_min, x_max, -1e300, 1e300]])
        ys = np.concatenate([edges_y, np.nextafter(edges_y, -np.inf),
                             np.nextafter(edges_y, np.inf), [y_min, y_max, -1e30, 1e30]])
        rng = np.random.default_rng(4)
        pts = [np.column_stack([xs, rng.choice(ys, len(xs))]),
               np.column_stack([rng.choice(xs, len(ys)), ys]),
               rng.uniform(-90.0, 90.0, (5000, 2))]
        xy = np.concatenate(pts)
        xyz = np.column_stack([xy, rng.uniform(-3.0, 3.0, len(xy))])
        expected = np.zeros((nx, ny), dtype=np.uint8)
        for x, y in xy.tolist():
            ix, iy = math.floor((x - x_min) / cell), math.floor((y - y_min) / cell)
            if 0 <= ix < nx and 0 <= iy < ny:
                expected[ix, iy] = 1
        assert np.array_equal(occupancy(PointCloud.from_arrays(xyz)), expected)


class TestFuseGrids:
    def test_zero_is_identity(self):
        g = occupancy(PointCloud.from_arrays([[1.0, 1.0, 0.0]]))
        z = occupancy(EMPTY)
        assert np.array_equal(fuse_grids([g, z]), g)

    def test_idempotence(self):
        g = occupancy(PointCloud.from_arrays([[1.0, 1.0, 0.0]]))
        assert np.array_equal(fuse_grids([g, g]), g)

    def test_disjoint_union(self):
        a = occupancy(PointCloud.from_arrays([[1.0, 1.0, 0.0]]))
        b = occupancy(PointCloud.from_arrays([[-3.0, 2.0, 0.0]]))
        assert fuse_grids([a, b]).sum() == 2


class TestCfcL1:
    def test_identical_grids(self):
        g = occupancy(PointCloud.from_arrays([[1.0, 1.0, 0.0]]))
        assert cfc_l1(g, g) == 0.0

    def test_counting(self):
        a = occupancy(PointCloud.from_arrays([[1.0, 1.0, 0], [2.0, 2.0, 0], [3.0, 3.0, 0]]))
        b = occupancy(EMPTY)
        assert cfc_l1(a, b) == 3.0

    def test_union_max_equivalence(self):
        g = group(3)
        per_agent = fuse_grids([occupancy(a.cloud) for a in g.agents])
        early = occupancy(early_fuse(g))
        assert cfc_l1(per_agent, early) == 0.0


class TestCfcScore:
    def test_equals_l1_against_early_fusion(self):
        g = group(3)
        for seed in range(6):
            out = cmag(g, TABLE_DISTRIBUTIONS["v2v4real"], comprehensive_from_tables(),
                       CmagConfig(), RngStream(seed, "score"))
            fused = fuse_grids([occupancy(a.cloud) for a in out.agents])
            assert cfc_score(g, out) == cfc_l1(fused, occupancy(early_fuse(g)))
        assert cfc_score(g, g) == 0.0

    def test_each_cloud_binned_once(self, monkeypatch):
        # an output agent holding an input agent's cloud reuses its grid
        g = group(3)
        binned = []
        bin_cloud = pipeline.occupancy
        monkeypatch.setattr(pipeline, "occupancy", lambda c: binned.append(c) or bin_cloud(c))
        cfc_score(g, g)
        assert [id(c) for c in binned] == [id(a.cloud) for a in g.agents]
        binned.clear()
        force_gate(monkeypatch, GateChoice.PLUS)
        out = cmag(g, TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(),
                   CmagConfig(), RngStream(0, "score"))
        cfc_score(g, out)
        assert len(binned) == g.n + 1 and binned[-1] is out.agents[-1].cloud


def force_gate(monkeypatch, decision):
    """Make cmag apply `decision`; the gate draw still runs first, so the
    random stream advances exactly as without forcing."""
    draw = pipeline.sample_gate

    def forced(responses, rng):
        draw(responses, rng)
        return decision

    monkeypatch.setattr(pipeline, "sample_gate", forced)


class TestCmag:
    PHI_S = TABLE_DISTRIBUTIONS["opv2v"]

    def run(self, g, seed=0):
        return cmag(g, self.PHI_S, comprehensive_from_tables(), CmagConfig(),
                    RngStream(seed, "aug"))

    def test_single_agent_passthrough(self):
        g = CooperativeGroup((agent("e", is_ego=True),))
        assert self.run(g) is g

    def test_coincident_group_passthrough(self):
        # every agent at one BEV spot: no pair can be split, nothing is drawn
        g = CooperativeGroup(tuple(agent(f"a{i}", x=2.0, is_ego=(i == 0), seed=i)
                                   for i in range(3)))
        assert self.run(g) is g

    def test_augments_its_own_output(self):
        # a mixup agent stands at its donor's pose; augmenting the result again
        # mixes another pair, and CFC scores both results
        scene = make_scene(32, [AGENT_TYPES[t] for t in "CEA"], RngStream(3, "golden"))
        g = make_group(scene, RngStream(3, "golden-lidar"))
        phi_s = TABLE_DISTRIBUTIONS["v2v4real"]
        for seed in range(4):
            once = cmag(g, phi_s, comprehensive_from_tables(), CmagConfig(),
                        RngStream(seed, "aug"))
            assert "mixup-0" in [a.id for a in once.agents]
            twice = cmag(once, phi_s, comprehensive_from_tables(), CmagConfig(),
                         RngStream(seed, "again"))
            assert twice is not once and validate_group(twice) is None
            for src, out in ((g, once), (once, twice)):
                fused = fuse_grids([occupancy(a.cloud) for a in out.agents])
                assert cfc_l1(fused, occupancy(early_fuse(src))) >= 0.0

    def test_golden_digest_float64(self):
        # the C, E, A golden scene through cmag for each table source and
        # seeds 0-3: per source, one sha256 over every output agent's float64
        # xyz and intensity bytes and the CFC L1 against the input's early
        # fusion. Covers the cut, the re-beaming, the setup jitter and the
        # occupancy grid bit for bit, which the float32 .pcv files of the CLI
        # digest do not.
        scene = make_scene(32, [AGENT_TYPES[t] for t in "CEA"], RngStream(3, "golden"))
        g = make_group(scene, RngStream(3, "golden-lidar"))
        early = occupancy(early_fuse(g))
        digests = {}
        for source in sorted(TABLE_DISTRIBUTIONS):
            h = hashlib.sha256()
            for seed in range(4):
                out = cmag(g, TABLE_DISTRIBUTIONS[source], comprehensive_from_tables(),
                           CmagConfig(), RngStream(seed, "golden-cmag"))
                for a in out.agents:
                    h.update(a.cloud.xyz.tobytes() + a.cloud.intensity.tobytes())
                l1 = cfc_l1(fuse_grids([occupancy(a.cloud) for a in out.agents]), early)
                h.update(repr(l1).encode())
            digests[source] = h.hexdigest()
        # the two pairs of sources draw the same gate decisions from a 3-agent group
        assert digests == {
            "dairv2x": "da9eed3b435f814c5cd17e406c2aa6b2e2bc74b41c030edc529fa8c420dae928",
            "opv2v": "5fff236ca928b4b69616a162be3f3b410530efadbfcd7bb9d038cdb857f9783f",
            "v2v4real": "da9eed3b435f814c5cd17e406c2aa6b2e2bc74b41c030edc529fa8c420dae928",
            "v2xset": "5fff236ca928b4b69616a162be3f3b410530efadbfcd7bb9d038cdb857f9783f"}

    def test_forced_keep_preserves_count(self, monkeypatch):
        g = group(3)
        force_gate(monkeypatch, GateChoice.KEEP)
        out = cmag(g, self.PHI_S, comprehensive_from_tables(), CmagConfig(),
                   RngStream(1, "aug"))
        assert out.n == 3

    def test_determinism_bitwise(self):
        g = group(3)
        a = self.run(g, seed=5)
        b = self.run(g, seed=5)
        assert a.n == b.n
        for x, y in zip(a.agents, b.agents):
            assert x.id == y.id and x.is_ego == y.is_ego
            assert np.array_equal(x.cloud.xyz, y.cloud.xyz)
            assert np.array_equal(x.cloud.intensity, y.cloud.intensity)

    def test_count_contract_and_single_ego(self):
        for seed in range(30):
            g = group(3)
            out = self.run(g, seed=seed)
            assert out.n in (2, 3, 4)
            assert validate_group(out) is None

    def test_ego_second_in_nearest_pair(self, monkeypatch):
        # the pair is (0, 1) with the ego at index 1; agent 2 is far away
        g = CooperativeGroup((agent("a", x=0.0, seed=1), agent("e", x=4.0, is_ego=True),
                              agent("b", x=30.0, seed=2)))
        assert nearest_pair(g) == (0, 1)
        force_gate(monkeypatch, GateChoice.KEEP)
        keep = cmag(g, self.PHI_S, comprehensive_from_tables(), CmagConfig(),
                    RngStream(2, "aug"))
        assert validate_group(keep) is None
        assert [a.id for a in keep.agents] == ["mixup-0", "e", "b"]
        assert keep.agents[1] is g.agents[1] and keep.agents[2] is g.agents[2]
        force_gate(monkeypatch, GateChoice.MINUS)
        minus = cmag(g, self.PHI_S, comprehensive_from_tables(), CmagConfig(),
                     RngStream(2, "aug"))
        assert validate_group(minus) is None
        assert [a.id for a in minus.agents] == ["b", "mixup-0"]
        assert minus.agents[1].is_ego
        assert minus.agents[1].pose is g.agents[1].pose
        # forcing a decision leaves the mixup cloud unchanged
        assert np.array_equal(keep.agents[0].cloud.xyz, minus.agents[1].cloud.xyz)

    def test_minus_at_two_keeps_one_ego(self, monkeypatch):
        g = group(2)
        force_gate(monkeypatch, GateChoice.MINUS)
        out = cmag(g, self.PHI_S, comprehensive_from_tables(), CmagConfig(),
                   RngStream(3, "aug"))
        assert out.n == 1
        assert out.agents[0].is_ego


class TestReadOnly:
    """Clouds and poses cannot change once made, so a group stays as it was
    checked, and `cfc_score` may reuse a source cloud's grid by `id`."""

    @staticmethod
    def assert_read_only(*arrays):
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = np.nan

    def assert_group_read_only(self, g):
        for a in g.agents:
            self.assert_read_only(a.cloud.xyz, a.cloud.intensity,
                                  a.pose.rotation, a.pose.translation)

    @pytest.fixture(scope="class")
    def simulated(self):
        scene = make_scene(2, [AGENT_TYPES["B"], AGENT_TYPES["A"]], RngStream(5, "scene"))
        return make_group(scene, RngStream(5, "sim"))

    def test_make_group(self, simulated):
        self.assert_group_read_only(simulated)

    def test_load_manifest(self, simulated, tmp_path):
        loaded, _ = load_manifest(save_manifest(simulated, tmp_path))
        self.assert_group_read_only(loaded)

    def test_cmag_output(self, simulated, monkeypatch):
        force_gate(monkeypatch, GateChoice.PLUS)
        out = cmag(simulated, TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(),
                   CmagConfig(), RngStream(0, "read-only"))
        assert out.n == simulated.n + 1
        self.assert_group_read_only(out)

    def test_stage_outputs(self, simulated):
        a1, a2 = simulated.agents
        cloud, rng = a2.cloud, RngStream(1, "stages")
        outputs = [
            unproject(project(cloud, a2.agent_type.fov_deg, a2.agent_type.beams, 512)),
            density_augment(cloud, a2.agent_type, rng),
            apply_setup_aug(cloud, sample_setup_params(rng)),
            cut_and_combine(a1.cloud, cloud, split_line(bev_center(a1), bev_center(a2), 0.3))[0],
            transform_cloud(cloud, a2.pose),
        ]
        for out in outputs:
            assert len(out) > 0
            self.assert_read_only(out.xyz, out.intensity)

    def test_arrays_are_taken_over(self):
        xyz, intensity, rotation, translation = np.zeros((2, 3)), np.ones(2), np.eye(3), np.ones(3)
        PointCloud(xyz, intensity)
        RigidTransform(rotation, translation)
        self.assert_read_only(xyz, intensity, rotation, translation)

    def test_from_arrays_copies(self):
        xyz = np.zeros((2, 3))
        cloud = PointCloud.from_arrays(xyz)
        xyz[0, 0] = np.nan
        assert cloud.is_finite()
        self.assert_read_only(cloud.xyz, cloud.intensity)
