import math

import numpy as np
import pytest

from coopaug import (AGENT_TYPES, Agent, CooperativeGroup,
                     RigidTransform, RngStream, bev_center, cut_and_combine,
                     make_mixup_agent, mixup, nearest_pair, split_line)
from coopaug.model import BLOCK_POINTS, WORLD_BOUND_M

from clouds import from_arrays

EMPTY = from_arrays(np.zeros((0, 3)))


def agent_at(x, y, z=0.0, aid=None, is_ego=False, cloud=None):
    if cloud is None:
        cloud = EMPTY
    pose = RigidTransform.from_ypr(0.0, translation=(x, y, z))
    return Agent(id=aid or f"a-{x}-{y}", pose=pose, cloud=cloud,
                 agent_type=AGENT_TYPES["A"], is_ego=is_ego)


class TestBevCenter:
    def test_projects_translation(self):
        assert np.array_equal(bev_center(agent_at(4.0, -2.0, 1.5)), [4.0, -2.0])

    def test_ego_identity_pose(self):
        assert np.array_equal(bev_center(agent_at(0.0, 0.0, 0.0)), [0.0, 0.0])

    def test_vertical_only(self):
        assert np.array_equal(bev_center(agent_at(0.0, 0.0, 3.0)), [0.0, 0.0])


class TestNearestPair:
    def test_unique_minimum(self):
        g = CooperativeGroup((agent_at(0, 0, is_ego=True), agent_at(3, 0),
                              agent_at(10, 0)))
        assert nearest_pair(g) == (0, 1)

    def test_lexicographic_tie_break(self):
        g = CooperativeGroup((agent_at(0, 0, is_ego=True), agent_at(2, 0),
                              agent_at(0, 2)))
        assert nearest_pair(g) == (0, 1)

    def test_too_small(self):
        # one agent, or agents all at one BEV spot (heights may differ): no pair
        assert nearest_pair(CooperativeGroup((agent_at(0, 0, is_ego=True),))) is None
        g = CooperativeGroup((agent_at(2, 3, is_ego=True), agent_at(2, 3, 1.0, aid="b"),
                              agent_at(2, 3, -4.0, aid="c")))
        assert nearest_pair(g) is None

    def test_skips_coincident_pair(self):
        # (0, 1) stand 1e-10 m apart, so the next nearest pair is picked
        g = CooperativeGroup((agent_at(0, 0, is_ego=True), agent_at(1e-10, 0),
                              agent_at(4, 0)))
        assert nearest_pair(g) == (1, 2)
        # (0, 2) coincide; (0, 3) and (2, 3) tie at 3 m, and (0, 3) comes first
        g = CooperativeGroup((agent_at(0, 0, is_ego=True), agent_at(7, 0),
                              agent_at(0, 0, 2.0, aid="b"), agent_at(0, 3)))
        assert nearest_pair(g) == (0, 3)

    def test_pair_at_the_threshold(self):
        g = CooperativeGroup((agent_at(0, 0, is_ego=True),
                              agent_at(mixup.MIN_SPLIT_DISTANCE_M, 0), agent_at(9, 0)))
        assert nearest_pair(g) == (0, 1)
        g = CooperativeGroup((agent_at(0, 0, is_ego=True),
                              agent_at(math.nextafter(mixup.MIN_SPLIT_DISTANCE_M, 0), 0),
                              agent_at(9, 0)))
        assert nearest_pair(g) == (1, 2)

    def test_overflowing_distances_tie(self):
        # a pose far enough out for distances to overflow is refused; at the
        # farthest a pose reaches, distances are finite and the nearest pair wins
        with pytest.raises(ValueError, match="invalid pose"):
            agent_at(1.7e308, 0)
        far = 10 * WORLD_BOUND_M
        g = CooperativeGroup((agent_at(far, far, is_ego=True), agent_at(-far, -far),
                              agent_at(-far, far - 5.0)))
        assert nearest_pair(g) == (1, 2)


class TestSplitLine:
    def test_perpendicular_bisector(self):
        line = split_line(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.0)
        assert np.allclose(line.anchor, [1.0, 0.0])
        assert np.allclose(line.direction, [0.0, 1.0], atol=1e-12)

    def test_quarter_turn(self):
        line = split_line(np.array([0.0, 0.0]), np.array([2.0, 0.0]), math.pi / 2)
        assert np.allclose(line.direction, [-1.0, 0.0], atol=1e-12)

    def test_degenerate_centers(self):
        with pytest.raises(ValueError, match="split centers coincide"):
            split_line(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0)

    def test_overflowing_distance(self):
        # centres as far apart as poses reach have a finite distance and line
        far = 10 * WORLD_BOUND_M
        line = split_line(np.array([far, far]), np.array([-far, -far]), 0.0)
        assert np.array_equal(line.anchor, [0.0, 0.0])
        assert np.allclose(line.direction, [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-15)

    def test_anchor_near_the_largest_double(self):
        # the midpoint of two centres near 1.7e308 is finite, with no overflow
        # warning (which pytest turns into an error)
        line = split_line(np.array([1.7e308, 0.0]), np.array([1.7e308, 3.0]), 0.0)
        assert np.array_equal(line.anchor, [1.7e308, 1.5])
        assert np.allclose(line.direction, [-1.0, 0.0], atol=1e-12)


class TestCutAndCombine:
    def line(self):
        return split_line(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.0)

    def test_hand_evaluated_sides(self):
        # anchor (1,0), direction (0,1): side((0.5,0)) = +0.5, side((1.5,0)) = -0.5
        p1 = from_arrays([[0.5, 0.0, 0.0]])
        p2 = from_arrays([[1.5, 0.0, 0.0]])
        out = cut_and_combine(p1, p2, self.line())[0]
        assert np.array_equal(out.xyz, [[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])

    def test_same_cloud_is_partition(self):
        rng = np.random.default_rng(3)
        xyz = rng.uniform(-3, 3, (200, 3))
        p = from_arrays(xyz)
        out = cut_and_combine(p, p, self.line())[0]
        assert len(out) == len(p)
        # brute-force: each BEV location appears exactly once
        line = self.line()
        side = line.side(xyz[:, :2])
        expected = np.concatenate([xyz[side >= 0], xyz[side < 0]])
        assert np.array_equal(np.sort(out.xyz, axis=0), np.sort(expected, axis=0))

    def test_on_line_tie_break(self):
        on_line = from_arrays([[1.0, 5.0, 0.3]])
        line = self.line()
        assert line.side(on_line.xyz[:, :2])[0] == 0.0
        kept = cut_and_combine(on_line, EMPTY, line)[0]
        dropped = cut_and_combine(EMPTY, on_line, line)[0]
        assert len(kept) == 1 and len(dropped) == 0

    def test_subset_property(self):
        rng = np.random.default_rng(11)
        p1 = from_arrays(rng.uniform(-5, 5, (80, 3)), rng.uniform(0, 1, 80))
        p2 = from_arrays(rng.uniform(-5, 5, (60, 3)), rng.uniform(0, 1, 60))
        out = cut_and_combine(p1, p2, self.line())[0]
        pool = {tuple(r) for r in np.column_stack(
            [np.concatenate([p1.xyz, p2.xyz]), np.concatenate([p1.intensity, p2.intensity])])}
        for row in np.column_stack([out.xyz, out.intensity]):
            assert tuple(row) in pool

    def test_direction_flip_swaps_sides(self):
        rng = np.random.default_rng(5)
        p1 = from_arrays(rng.uniform(-5, 5, (40, 3)))
        p2 = from_arrays(rng.uniform(-5, 5, (40, 3)))
        line = self.line()
        flipped = split_line(np.array([0.0, 0.0]), np.array([2.0, 0.0]), math.pi)
        a = cut_and_combine(p1, p2, line)[0]
        b = cut_and_combine(p2, p1, flipped)[0]
        # same point multisets up to order for points strictly off the line
        assert np.array_equal(np.sort(a.xyz.round(12), axis=0),
                              np.sort(b.xyz.round(12), axis=0))

    def test_matches_per_point_oracle(self):
        self.assert_matches_per_point_oracle((300, 250))

    def test_matches_per_point_oracle_across_blocks(self):
        # p1 in three blocks, the last one partial, and p2 in one partial block
        self.assert_matches_per_point_oracle((2 * BLOCK_POINTS + 300, BLOCK_POINTS - 30))

    def assert_matches_per_point_oracle(self, sizes):
        # a rotated line and a quarter-turned one, with points exactly on each
        # (side == 0 stays with p1), against the side evaluated point by point
        rng = np.random.default_rng(8)
        for rot in (0.3, math.pi / 2):
            line = split_line(np.array([0.25, -1.0]), np.array([2.0, 0.5]), rot)
            on = line.anchor + np.outer(rng.uniform(-4, 4, 30), line.direction)
            on = on[line.side(on) == 0.0]
            assert len(on) > 0
            clouds = []
            for n in sizes:
                xy = np.concatenate([rng.uniform(-6, 6, (n, 2)), on])
                xyz = np.column_stack([xy, rng.uniform(-2, 2, len(xy))])
                clouds.append(from_arrays(xyz, rng.uniform(0, 1, len(xy))))
            a0, a1 = line.anchor.tolist()
            d0, d1 = line.direction.tolist()
            rows, kept = [], []
            for cloud, keep in zip(clouds, (lambda v: v >= 0.0, lambda v: v < 0.0)):
                count = 0
                for p, i in zip(cloud.xyz.tolist(), cloud.intensity.tolist()):
                    if keep(d0 * (p[1] - a1) - d1 * (p[0] - a0)):
                        rows.append(p + [i])
                        count += 1
                kept.append(count)
            out, kept1, kept2 = cut_and_combine(*clouds, line)
            assert [kept1, kept2] == kept
            expected = np.array(rows)
            assert out.xyz.tobytes() == np.ascontiguousarray(expected[:, :3]).tobytes()
            assert out.intensity.tobytes() == np.ascontiguousarray(expected[:, 3]).tobytes()


class TestMakeMixupAgent:
    def group(self, n1=100, n2=100, seed=0):
        rng = np.random.default_rng(seed)
        c1 = from_arrays(rng.uniform(-10, 0, (n1, 3)), rng.uniform(0, 1, n1))
        c2 = from_arrays(rng.uniform(0, 10, (n2, 3)), rng.uniform(0, 1, n2))
        return CooperativeGroup((agent_at(-5, 0, aid="e", is_ego=True, cloud=c1),
                                 agent_at(5, 0, aid="o", cloud=c2)))

    def test_subset_bound(self):
        g = self.group()
        mix = make_mixup_agent(g, RngStream(0, "m"), (0, 1))
        assert len(mix.cloud) <= len(g.agents[0].cloud) + len(g.agents[1].cloud)
        assert not mix.is_ego
        assert mix.id not in {a.id for a in g.agents}

    def test_too_small(self):
        # two agents at one spot give no pair; forcing one still fails the split
        g = CooperativeGroup((agent_at(0, 0, is_ego=True), agent_at(0, 0, 1.0, aid="b")))
        assert nearest_pair(g) is None
        with pytest.raises(ValueError, match="split centers coincide"):
            make_mixup_agent(g, RngStream(0, "m"), (0, 1))

    def test_membership_oracle(self):
        g = self.group(seed=9)
        mix = make_mixup_agent(g, RngStream(4, "m"), (0, 1))
        pool = {tuple(r) for a in g.agents for r in a.cloud.xyz}
        for r in mix.cloud.xyz:
            assert tuple(r) in pool

    def test_bitwise_determinism(self):
        g = self.group(seed=2)
        m1 = make_mixup_agent(g, RngStream(7, "m"), (0, 1))
        m2 = make_mixup_agent(g, RngStream(7, "m"), (0, 1))
        assert np.array_equal(m1.cloud.xyz, m2.cloud.xyz)
        assert m1.id == m2.id and m1.agent_type == m2.agent_type

    def test_donor_metadata(self, monkeypatch):
        # zero rotation keeps left points from agent 0 (side >= 0 is the +y
        # rotated half); verify metadata comes from the majority contributor
        g = self.group()
        monkeypatch.setattr(mixup, "SPLIT_ROTATION_RAD", 0.0)
        mix = make_mixup_agent(g, RngStream(0, "m"), (0, 1))
        donor_ids = {tuple(p) for p in g.agents[0].cloud.xyz}
        from_a0 = sum(tuple(p) in donor_ids for p in mix.cloud.xyz)
        expect_a0 = from_a0 >= len(mix.cloud) - from_a0
        donor = g.agents[0] if expect_a0 else g.agents[1]
        assert np.array_equal(mix.pose.translation, donor.pose.translation)
