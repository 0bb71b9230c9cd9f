"""The numpy kernels against scalar-loop oracles, bit for bit.

The oracles handle one ray (one point) at a time: the slab test with an
explicit branch for zero direction components, and a first-wins scatter.
"""

import numpy as np

from coopaug import AGENT_TYPES, RngStream, make_scene
from coopaug.kernels import ray_cast, scatter_nearest
from coopaug.sim import _ray_directions


def ray_cast_oracle(origin, dirs, ground_z, boxes, max_range):
    origin = np.asarray(origin, dtype=np.float64).tolist()
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3).tolist()
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 6).tolist()
    ground_z, max_range = float(ground_z), float(max_range)
    out = np.full(len(dirs), -1.0)
    oz = origin[2]
    for i, d in enumerate(dirs):
        best = np.inf
        # ground plane z = ground_z, only rays pointing toward it
        if d[2] < 0.0 and oz > ground_z:
            t = (ground_z - oz) / d[2]
            if 0.0 < t < best:
                best = t
        for box in boxes:
            tmin = 0.0
            tmax = np.inf
            hit = True
            for k in range(3):
                o = origin[k]
                lo = box[k] - box[3 + k]
                hi = box[k] + box[3 + k]
                if d[k] == 0.0:
                    if o < lo or o > hi:
                        hit = False
                        break
                else:
                    t1 = (lo - o) / d[k]
                    t2 = (hi - o) / d[k]
                    if t1 > t2:
                        t1, t2 = t2, t1
                    if t1 > tmin:
                        tmin = t1
                    if t2 < tmax:
                        tmax = t2
                    if tmin > tmax:
                        hit = False
                        break
            if hit and tmin > 0.0 and tmin < best:
                best = tmin
        if best <= max_range:
            out[i] = best
    return out


def scatter_nearest_oracle(rows, cols, ranges, intens, H, W):
    rimg = np.zeros((H, W))
    iimg = np.zeros((H, W))
    for r, c, rng, it in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(),
                             np.asarray(ranges, dtype=np.float64).tolist(),
                             np.asarray(intens, dtype=np.float64).tolist()):
        if rimg[r, c] == 0.0 or rng < rimg[r, c]:
            rimg[r, c] = rng
            iimg[r, c] = it
    return rimg, iimg


def assert_ray_cast_matches(origin, dirs, ground_z, boxes, max_range):
    got = ray_cast(origin, dirs, ground_z, boxes, max_range)
    want = ray_cast_oracle(origin, dirs, ground_z, boxes, max_range)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    return got


def assert_scatter_matches(rows, cols, ranges, intens, H, W):
    got = scatter_nearest(rows, cols, ranges, intens, H, W)
    want = scatter_nearest_oracle(rows, cols, ranges, intens, H, W)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    return got


def random_boxes(rng, n):
    centers = rng.uniform(-30.0, 30.0, size=(n, 3))
    centers[:, 2] = np.abs(centers[:, 2]) * 0.1 + 0.5
    half = rng.uniform(0.5, 3.0, size=(n, 3))
    return np.hstack([centers, half])


def random_dirs(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# one box resting on the ground at x = 10: x in [8, 12], y in [-1, 1], z in [0, 2]
BOX = np.array([[10.0, 0.0, 1.0, 2.0, 1.0, 1.0]])
AXIS_DIRS = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                      [-0.0, 0.0, -1.0]])


class TestRayCastBackends:
    def test_backends_agree_bitwise(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            origin = np.array([0.0, 0.0, 2.0 + trial * 0.3])
            assert_ray_cast_matches(origin, random_dirs(rng, 300), 0.0,
                                    random_boxes(rng, 12), 120.0)

    def test_no_boxes(self):
        rng = np.random.default_rng(1)
        origin = np.array([1.0, -2.0, 3.0])
        dirs = random_dirs(rng, 200)
        out = assert_ray_cast_matches(origin, dirs, 0.0, np.zeros((0, 6)), 80.0)
        # downward rays hit the ground at exactly -oz / dz
        down = dirs[:, 2] < 0
        expect = -origin[2] / dirs[down, 2]
        expect = np.where(expect <= 80.0, expect, -1.0)
        assert np.allclose(out[down], expect)
        assert np.all(out[~down] == -1.0)

    def test_axis_box_hit(self):
        origin = np.zeros(3)
        dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        boxes = np.array([[10.0, 0.0, 0.0, 2.0, 2.0, 2.0]])
        out = assert_ray_cast_matches(origin, dirs, -5.0, boxes, 100.0)
        assert out[0] == 8.0
        assert out[1] == -1.0
        assert out[2] == -1.0

    def test_axis_parallel_and_vertical_rays(self):
        diagonals = unit([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0],
                          [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        dirs = np.vstack([AXIS_DIRS, diagonals])
        for origin in ([0.0, 0.0, 1.0], [10.0, 0.0, 5.0], [10.0, 5.0, 1.0],
                       [0.0, 0.0, 2.0], [20.0, 0.0, 0.5]):
            assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)
        # straight down onto the box top, and past its footprint onto the ground
        out = assert_ray_cast_matches([10.0, 0.0, 5.0], AXIS_DIRS[5:], 0.0, BOX, 100.0)
        assert np.all(out == 3.0)
        out = assert_ray_cast_matches([20.0, 0.0, 5.0], AXIS_DIRS[5:], 0.0, BOX, 100.0)
        assert np.all(out == 5.0)

    def test_origin_inside_box(self):
        # a ray leaving a box from inside does not hit that box (tmin clamps to 0)
        rng = np.random.default_rng(3)
        dirs = np.vstack([AXIS_DIRS, random_dirs(rng, 200)])
        for origin in ([10.0, 0.0, 1.0], [9.0, 0.5, 0.25], [11.9, -0.9, 1.9]):
            out = assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)
            assert np.all(out != 0.0)
            up = dirs[:, 2] >= 0.0
            assert np.all(out[up] == -1.0)

    def test_origin_on_box_face(self):
        rng = np.random.default_rng(4)
        dirs = np.vstack([AXIS_DIRS, random_dirs(rng, 200)])
        for origin in ([8.0, 0.0, 1.0], [12.0, 0.5, 1.0], [10.0, 1.0, 0.5],
                       [10.0, 0.0, 2.0], [8.0, 1.0, 2.0], [8.0, -1.0, 0.0]):
            assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)
        # a ray skimming along the top face from its edge is a zero-length entry
        out = assert_ray_cast_matches([8.0, 0.0, 2.0], AXIS_DIRS[:1], 0.0, BOX, 100.0)
        assert out[0] == -1.0

    def test_rays_grazing_edges_and_corners(self):
        lo, hi = BOX[0, :3] - BOX[0, 3:], BOX[0, :3] + BOX[0, 3:]
        corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                            for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        edge_mids = np.array([[10.0, 1.0, 2.0], [10.0, -1.0, 2.0], [8.0, 1.0, 1.0],
                              [8.0, 0.0, 2.0], [12.0, -1.0, 1.0], [8.0, 1.0, 0.0]])
        targets = np.vstack([corners, edge_mids])
        for origin in ([0.0, 0.0, 1.0], [0.0, 3.0, 4.0], [20.0, -4.0, 2.0],
                       [10.0, 6.0, 2.0]):
            origin = np.array(origin)
            dirs = unit(targets - origin)
            # each aim, and the two neighbouring doubles of every nonzero component
            nonzero = dirs != 0.0
            dirs = np.vstack([dirs, np.where(nonzero, np.nextafter(dirs, np.inf), dirs),
                              np.where(nonzero, np.nextafter(dirs, -np.inf), dirs)])
            assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)
        # rays running exactly along a face plane and along an edge line
        for origin in ([0.0, 1.0, 1.0], [0.0, -1.0, 0.5], [0.0, 1.0, 2.0], [0.0, 0.0, 2.0]):
            out = assert_ray_cast_matches(origin, AXIS_DIRS[:1], -1.0, BOX, 100.0)
            assert out[0] == 8.0

    def test_range_limit_is_inclusive(self):
        dirs = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        out = assert_ray_cast_matches([0.0, 0.0, 2.0], dirs, 0.0, BOX, 2.0)
        assert out[0] == 2.0 and out[1] == -1.0
        out = assert_ray_cast_matches([0.0, 0.0, 1.0], dirs, 0.0, BOX, 8.0)
        assert out[0] == 1.0 and out[1] == 8.0
        out = assert_ray_cast_matches([0.0, 0.0, 1.0], dirs, 0.0, BOX, np.nextafter(8.0, 0.0))
        assert out[1] == -1.0

    def test_origin_below_ground(self):
        dirs = np.vstack([AXIS_DIRS, random_dirs(np.random.default_rng(5), 100)])
        out = assert_ray_cast_matches([0.0, 0.0, -1.0], dirs, 0.0, np.zeros((0, 6)), 100.0)
        assert np.all(out == -1.0)

    def test_simulated_scene_rays(self):
        types = [AGENT_TYPES[t] for t in "AEC"]
        scene = make_scene(32, types, RngStream(11, "kernels"))
        pick = np.random.default_rng(6)
        for pose, agent_type in scene.agent_placements:
            dirs = _ray_directions(agent_type)
            dirs = dirs[np.sort(pick.choice(len(dirs), 4000, replace=False))] @ pose.rotation.T
            out = assert_ray_cast_matches(pose.translation, dirs, scene.ground_z,
                                          scene.boxes, agent_type.range_m)
            assert np.any(out > 0.0)


class TestAzimuthWedge:
    """`ray_cast` slab-tests a box only against the rays inside its azimuth
    wedge; these cases sit on the wedge's boundaries."""

    # straight down with every sign of zero (arctan2: azimuth 0, pi, -0.0, -pi), then up
    VERTICAL = np.array([[0.0, 0.0, -1.0], [-0.0, 0.0, -1.0], [0.0, -0.0, -1.0],
                         [-0.0, -0.0, -1.0], [0.0, 0.0, 1.0], [-0.0, -0.0, 1.0]])

    @staticmethod
    def around(dirs):
        """Each ray and the two neighbouring doubles of every component."""
        return np.vstack([dirs, np.nextafter(dirs, np.inf), np.nextafter(dirs, -np.inf)])

    def test_box_straddling_the_seam_behind_the_origin(self):
        # x in [-12, -8], y in [-1, 1]: the wedge crosses +-pi
        box = np.array([[-10.0, 0.0, 1.0, 2.0, 1.0, 1.0]])
        tiny = np.nextafter(0.0, 1.0)
        back = np.array([[-1.0, dy, dz] for dy in (0.0, -0.0, tiny, -tiny)
                         for dz in (0.0, 0.05, -0.05)])
        assert set(np.arctan2(back[:, 1], back[:, 0])) == {np.pi, -np.pi}
        dirs = np.vstack([unit(back), self.around(unit([[-1.0, 0.1, 0.0], [-1.0, -0.1, 0.0]]))])
        out = assert_ray_cast_matches([0.0, 0.0, 1.0], dirs, 0.0, box, 100.0)
        assert np.all(out[:12] > 0.0)
        assert out[0] == out[3] == out[6] == out[9] == 8.0

    def test_origin_over_footprint_edge_and_corner(self):
        rng = np.random.default_rng(8)
        dirs = np.vstack([self.VERTICAL, AXIS_DIRS, random_dirs(rng, 200)])
        for origin in ([12.0, 0.0, 3.0], [8.0, 0.5, 5.0], [10.0, 1.0, 2.5],
                       [10.0, -1.0, 4.0], [12.0, 1.0, 3.0], [8.0, -1.0, 4.0],
                       [8.0, 1.0, 2.0 + 1e-9]):
            out = assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)
            # straight down onto the top face, whatever the signs of the zeros
            assert np.all(out[:4] == origin[2] - 2.0)

    def test_footprint_a_micrometre_from_the_origin(self):
        # the wedge is nearly pi wide; seen from behind, it crosses +-pi
        lo, hi = BOX[0, :3] - BOX[0, 3:], BOX[0, :3] + BOX[0, 3:]
        corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                            for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
        rng = np.random.default_rng(9)
        for origin in ([8.0 - 1e-6, 0.0, 1.0], [12.0 + 1e-6, 0.0, 1.0],
                       [10.0, 1.0 + 1e-6, 3.0], [12.0 + 1e-6, 1.0 + 1e-6, 1.0],
                       [8.0 - 1e-6, -1.0 - 1e-6, 2.5]):
            # aims at the corners and the centre, and rays grazing along x and y
            aims = unit(np.vstack([corners, BOX[:, :3]]) - origin)
            side = np.array([[s * 1e-9, t, 0.0] for s in (-1, 0, 1) for t in (-1.0, 1.0)])
            dirs = np.vstack([self.around(aims), AXIS_DIRS, unit(side), unit(side[:, [1, 0, 2]]),
                              self.VERTICAL, random_dirs(rng, 300)])
            assert_ray_cast_matches(origin, dirs, 0.0, BOX, 100.0)

    def test_vertical_rays_outside_the_footprint(self):
        for origin in ([5.0, 0.0, 5.0], [10.0, 3.0, 1.0], [14.0, 0.0, 3.0],
                       [12.0 + 1e-9, 1.0, 3.0], [6.0, -2.0, 1.0]):
            out = assert_ray_cast_matches(origin, self.VERTICAL, 0.0, BOX, 100.0)
            assert np.all(out[:4] == origin[2]) and np.all(out[4:] == -1.0)


class TestScatterBackends:
    def test_backends_agree_bitwise(self):
        rng = np.random.default_rng(2)
        H, W = 32, 256
        n = 5000
        assert_scatter_matches(rng.integers(0, H, size=n), rng.integers(0, W, size=n),
                               rng.uniform(0.5, 100.0, size=n), rng.uniform(0.0, 1.0, size=n),
                               H, W)

    def test_tie_break_matches(self):
        # duplicate ranges in the same cell: the earliest point wins
        rows = np.array([3, 3, 3])
        cols = np.array([7, 7, 7])
        ranges = np.array([5.0, 5.0, 5.0])
        intens = np.array([0.1, 0.2, 0.3])
        a = assert_scatter_matches(rows, cols, ranges, intens, 8, 16)
        assert a[0][3, 7] == 5.0 and a[1][3, 7] == 0.1

    def test_many_equal_range_ties(self):
        rng = np.random.default_rng(7)
        n = 4000
        assert_scatter_matches(rng.integers(0, 4, size=n), rng.integers(0, 8, size=n),
                               rng.choice([1.0, 2.5, 2.5000000000000004, 7.0], size=n),
                               rng.uniform(0.0, 1.0, size=n), 4, 8)

    def test_empty_input(self):
        z = np.zeros(0)
        a = assert_scatter_matches(z.astype(np.int64), z.astype(np.int64), z, z, 4, 4)
        assert np.all(a[0] == 0.0) and np.all(a[1] == 0.0)
