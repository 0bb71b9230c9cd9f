"""The numpy kernels against scalar-loop oracles, bit for bit.

The oracles handle one ray (one point) at a time: the slab test with an
explicit branch for zero direction components, and a first-wins scatter.
"""

import numpy as np
import pytest

from coopaug import AGENT_TYPES, RigidTransform, RngStream, make_scene
from coopaug.kernels import _column_runs, ray_cast, scatter_nearest
from coopaug.rangeview import AZIMUTH_BINS
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


def assert_ray_cast_matches(origin, dirs, ground_z, boxes, max_range, width=None):
    """One row of one ray per column, unless a row width is given."""
    width = len(dirs) if width is None else width
    got = ray_cast(origin, dirs, ground_z, boxes, max_range, width)
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
    def test_random_rays_match_the_oracle(self):
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
        # a zero-thickness box, a square at z = 1, and origins in its plane: for
        # rays in that plane both z slab distances are 0 / 0
        flat = np.array([[10.0, 0.0, 1.0, 2.0, 1.0, 0.0]])
        in_plane = np.vstack([dirs, unit([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 1.0, -0.0]])])
        for origin in ([5.0, 0.0, 1.0], [10.0, 0.0, 1.0], [8.0, 1.0, 1.0], [12.0, -0.5, 1.0],
                       [10.0, 3.0, 1.0]):
            assert_ray_cast_matches(origin, in_plane, 0.0, flat, 100.0)
        out = assert_ray_cast_matches([5.0, 0.0, 1.0], AXIS_DIRS[:2], 0.0, flat, 100.0)
        assert out[0] == 3.0 and out[1] == -1.0
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
    def test_random_points_match_the_oracle(self):
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


class TestScatterContract:
    """The scatter's contract at its edges: any positive, non-NaN range, +inf
    included, and the earliest point winning ties."""

    def test_huge_finite_range(self):
        rows, cols = np.array([0, 0, 1, 1, 1]), np.array([2, 2, 3, 3, 3])
        ranges = np.array([1e308, 1e308, np.finfo(np.float64).max, 1e308, 1.0])
        a = assert_scatter_matches(rows, cols, ranges, np.arange(5.0), 2, 4)
        assert a[0][0, 2] == 1e308 and a[1][0, 2] == 0.0
        assert a[0][1, 3] == 1.0 and a[1][1, 3] == 4.0

    def test_infinite_ranges(self):
        # alone in a pixel +inf stays +inf, the first of them winning;
        # with a finite range, before or after it, the finite range wins
        rows = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cols = np.array([1, 1, 2, 2, 0, 0, 0, 3])
        ranges = np.array([np.inf, np.inf, np.inf, 4.0, 4.0, np.inf, 4.0, 9.0])
        a = assert_scatter_matches(rows, cols, ranges, np.arange(8.0), 2, 4)
        assert a[0][0, 1] == np.inf and a[1][0, 1] == 0.0
        assert a[0][0, 2] == 4.0 and a[1][0, 2] == 3.0
        assert a[0][1, 0] == 4.0 and a[1][1, 0] == 4.0
        assert a[0][0, 0] == 0.0 and a[0][1, 3] == 9.0

    def test_smallest_subnormal_range(self):
        tiny = 5e-324
        rows, cols = np.array([1, 1, 1, 0]), np.array([1, 1, 1, 0])
        a = assert_scatter_matches(rows, cols, np.array([1.0, tiny, tiny, tiny]),
                                   np.arange(4.0), 2, 2)
        assert a[0][1, 1] == tiny and a[1][1, 1] == 1.0 and a[0][0, 0] == tiny

    def test_many_shuffled_points_on_one_pixel(self):
        rng = np.random.default_rng(12)
        n = 20_000
        ranges = rng.permutation(np.repeat([0.75, 1.5, 3.0, 6.0], n // 4))
        intens = rng.permutation(n) / n
        pixel = np.full(n, 2)
        a = assert_scatter_matches(pixel, pixel + 3, ranges, intens, 4, 8)
        first = np.flatnonzero(ranges == 0.75)[0]
        assert a[0][2, 5] == 0.75 and a[1][2, 5] == intens[first]
        assert np.count_nonzero(a[0]) == 1

    def test_last_pixel(self):
        H, W = 3, 5
        rows = np.array([H - 1, H - 1, 0, H - 1, 0, H - 1])
        cols = np.array([W - 1, W - 1, W - 1, 0, 0, W - 1])
        ranges = np.array([2.0, 1.0, 5.0, 6.0, 7.0, 1.0])
        a = assert_scatter_matches(rows, cols, ranges, np.arange(6.0), H, W)
        assert a[0][H - 1, W - 1] == 1.0 and a[1][H - 1, W - 1] == 1.0


def one_turn_down(azimuth):
    """A wedge end past +pi, one turn lower, where the ray cast compares it."""
    return azimuth - 2.0 * np.pi if azimuth > np.pi else azimuth


def wedge(origin, box):
    """The corner azimuths of a box's footprint and its widened wedge ends
    (start, stop), as `ray_cast` sees them from origin: the negative corners of
    a footprint wholly behind the origin are turned one turn up."""
    x = box[0] + np.array([-1.0, 1.0, -1.0, 1.0]) * box[3] - origin[0]
    y = box[1] + np.array([-1.0, -1.0, 1.0, 1.0]) * box[4] - origin[1]
    corners = np.arctan2(y, x)
    if box[0] + box[3] < origin[0]:
        corners = np.where(corners < 0.0, corners + 2.0 * np.pi, corners)
    return corners, corners.min() - 1e-9, corners.max() + 1e-9


def aimed(azimuth):
    """A horizontal direction, nearly unit, whose arctan2 is exactly `azimuth`:
    its cosine and sine, each moved by at most 16 doubles."""
    steps = np.arange(-16.0, 17.0)
    x = np.cos(azimuth) + steps[:, None] * np.spacing(np.cos(azimuth))
    y = np.sin(azimuth) + steps[None, :] * np.spacing(np.sin(azimuth))
    x, y = np.broadcast_arrays(x, y)
    exact = np.flatnonzero(np.arctan2(y, x) == azimuth)
    assert len(exact), azimuth
    return np.array([x.flat[exact[0]], y.flat[exact[0]], 0.0])


def tilted_column(azimuth, away):
    """Three rays of one column, each row at its own azimuth as on a pitched
    and rolled sensor: the middle row exactly at `azimuth`, the first and last
    rows 2e-7 and 1e-7 rad further toward `away` (+1 or -1). The middle row so
    holds the column's least (away +1) or greatest (away -1) azimuth."""
    first, last = (azimuth + away * t for t in (2e-7, 1e-7))
    return np.array([[np.cos(first), np.sin(first), -0.03], aimed(azimuth),
                     [np.cos(last), np.sin(last), 0.03]])


class TestWedgeEnds:
    """`ray_cast` keeps a column for a box when the column's least and greatest
    azimuth meet the box's wedge, widened by 1e-9 rad. These columns end
    exactly on a widened wedge end or on a corner azimuth, or one double
    either side of it: of them, only the column ending just before the start
    and the one starting just past the stop are culled."""

    ORIGINS = ([0.0, 0.0, 1.0], [0.5, -0.25, 1.6])

    @staticmethod
    def assert_culls_outside_the_wedge(origin, box):
        """Slab-tests the wedge-end columns and one at the box centre against
        the box, bit for bit with the oracle; checks which columns are culled."""
        origin = np.asarray(origin)
        corners, start, stop = wedge(origin, box)
        columns, ends, culled = [], [], []
        for k, end in enumerate(map(one_turn_down, (start, stop, *corners))):
            for step, azimuth in enumerate((np.nextafter(end, -np.inf), end,
                                            np.nextafter(end, np.inf))):
                for away in (-1, 1):
                    # the column ending a double before the start, and the one
                    # starting a double past the stop
                    if (k, step, away) in ((0, 0, -1), (1, 2, 1)):
                        culled.append(len(columns))
                    columns.append(tilted_column(azimuth, away))
                    ends.append(azimuth)
        columns.append(tilted_column(np.arctan2(box[1] - origin[1], box[0] - origin[0]), 1))
        dirs = np.stack(columns, axis=1)  # (rows, columns, 3)
        azimuth = np.arctan2(dirs[..., 1], dirs[..., 0])
        amin, amax = azimuth.min(axis=0), azimuth.max(axis=0)
        away = np.tile([-1, 1], len(ends) // 2)
        assert np.array_equal(np.where(away < 0, amax[:-1], amin[:-1]), ends)
        kept = np.zeros(len(columns), dtype=bool)
        lo, hi = box[None, :3] - box[None, 3:], box[None, :3] + box[None, 3:]
        for _, first, last in _column_runs(amin, amax, origin, lo, hi):
            kept[first:last] = True
        assert np.flatnonzero(~kept).tolist() == culled
        out = assert_ray_cast_matches(origin, dirs.reshape(-1, 3), -1.0, box, 60.0,
                                      len(columns))
        assert np.all(out.reshape(3, -1)[:, -1] > 0.0)
        return dirs.reshape(-1, 3), len(columns)

    def check(self, boxes):
        for origin in self.ORIGINS:
            for box in boxes:
                dirs, width = self.assert_culls_outside_the_wedge(origin, box)
                assert_ray_cast_matches(origin, dirs, -1.0, boxes, 60.0, width)

    def test_columns_ending_on_wedge_ends(self):
        # ahead, ahead and to either side, and behind but not across +-pi: the
        # last wedge lies wholly past +pi, and both its ends are compared one turn down
        self.check(np.array([[15.0, 3.0, 1.5, 2.2, 0.9, 1.5], [7.0, 6.0, 1.5, 1.0, 2.0, 1.5],
                             [12.0, -5.0, 1.5, 1.5, 1.5, 1.5], [-9.0, 3.0, 1.5, 1.0, 1.0, 1.5],
                             [-9.0, -3.0, 1.5, 1.0, 1.0, 1.5]]))

    def test_columns_ending_across_the_seam(self):
        # behind the origin, the wedges cross +-pi: the stop is compared one
        # turn down, against the columns' least azimuth; one box is 2 mm wide
        self.check(np.array([[-14.0, 0.2, 1.5, 2.2, 0.9, 1.5], [-20.0, -0.5, 1.5, 1.0, 1.0, 1.5],
                             [-30.0, 0.0, 1.5, 1e-3, 1e-3, 1.5]]))

    def test_far_small_boxes(self):
        # 4 cm boxes 100 m out, two beside the seam, and fans of rays around them
        origin = np.array([0.0, 0.0, 1.5])
        rng = np.random.default_rng(13)
        for az in (-np.pi + 0.008, -np.pi / 2, 0.0008, 1.98, np.pi - 0.0023):
            centre = np.array([100.0 * np.cos(az), 100.0 * np.sin(az), 1.0])
            box = np.array([*centre, 0.02, 0.02, 1.0])
            x = centre[0] + np.array([-1, 1, -1, 1]) * 0.02
            y = centre[1] + np.array([-1, -1, 1, 1]) * 0.02
            corners = np.array([[xi, yi, z] for xi, yi in zip(x, y) for z in (0.0, 2.0)])
            fan_az = az + rng.uniform(-0.0023, 0.0023, 300)
            fan = np.column_stack([np.cos(fan_az), np.sin(fan_az), rng.uniform(-0.02, 0.01, 300)])
            dirs = np.vstack([TestAzimuthWedge.around(unit(np.vstack([corners, centre]) - origin)),
                              unit(fan)])
            out = assert_ray_cast_matches(origin, dirs, 0.0, box, 200.0)
            assert np.any((out > 99.0) & (out < 101.0))


def column_at(azimuth, yaw):
    """The sensor column whose centre a yaw-only pose turns to this azimuth."""
    k = AZIMUTH_BINS / 2 * (1.0 - (azimuth - yaw) / np.pi) - 0.5
    return int(round(k)) % AZIMUTH_BINS


def grid_block(agent_type, pose, first, n):
    """All beams of n neighbouring columns of the sensor grid, from column
    `first` on and wrapping past the last, turned by the pose: rows of n rays,
    as `simulate_lidar` lays out the full grid."""
    grid = _ray_directions(agent_type).reshape(agent_type.beams, AZIMUTH_BINS, 3)
    return np.roll(grid, -first, axis=1)[:, :n].reshape(-1, 3) @ pose.rotation.T


class TestColumnCulling:
    """`ray_cast` on blocks of a real sensor grid, many rays per column: a
    column is culled as a whole, on the least and greatest azimuth of its rays."""

    @staticmethod
    def assert_hits_boxes(origin, dirs, boxes, width):
        out = assert_ray_cast_matches(origin, dirs, 0.0, boxes, 150.0, width)
        assert np.any(out != ray_cast_oracle(origin, dirs, 0.0, np.zeros((0, 6)), 150.0))

    def test_block_around_a_box(self):
        # a box inside the block, one across its edge, one behind the origin
        boxes = np.array([[15.0, 3.0, 0.75, 2.2, 0.9, 0.75], [7.0, 6.0, 0.75, 1.0, 2.0, 0.75],
                          [-20.0, 0.0, 0.75, 2.0, 1.0, 0.75]])
        for yaw in (0.0, 0.4, -2.0):
            pose = RigidTransform.from_ypr(yaw, translation=(1.0, -2.0, 2.0))
            first = column_at(np.arctan2(5.0, 14.0), yaw) - 64
            self.assert_hits_boxes(pose.translation, grid_block(AGENT_TYPES["B"], pose, first, 128),
                                   boxes, 128)

    def test_block_across_the_seam(self):
        # a box behind the origin whose wedge crosses +-pi; at yaw 0 the
        # block wraps from the sensor's last column to its first
        boxes = np.array([[-14.0, 0.2, 0.75, 2.2, 0.9, 0.75], [-9.0, -3.0, 0.75, 1.0, 1.0, 0.75]])
        for yaw in (0.0, 1.0, -2.5):
            pose = RigidTransform.from_ypr(yaw, translation=(0.0, 0.0, 2.0))
            first = column_at(np.pi, yaw) - 64
            self.assert_hits_boxes(pose.translation, grid_block(AGENT_TYPES["B"], pose, first, 128),
                                   boxes, 128)

    def test_origin_over_a_footprint(self):
        # every column is kept for the box under the origin, not for the other
        boxes = np.vstack([BOX, [[20.0, 1.0, 0.75, 2.0, 1.0, 0.75]]])
        for yaw in (0.7, 3.0):
            pose = RigidTransform.from_ypr(yaw, translation=(10.0, 0.0, 2.3))
            for toward in (0.0, np.pi / 2, np.pi):
                first = column_at(toward, yaw) - 32
                self.assert_hits_boxes(pose.translation,
                                       grid_block(AGENT_TYPES["A"], pose, first, 64), boxes, 64)

    def test_pitched_and_rolled_grid(self):
        # a tilted sensor spreads one column's rays over far more than a
        # column's width, so a column is kept on its least and greatest
        # azimuth, not on its first row's
        agent_type = AGENT_TYPES["C"]
        pose = RigidTransform.from_ypr(0.3, pitch=0.25, roll=-0.35, translation=(0.0, 0.0, 2.0))
        dirs = grid_block(agent_type, pose, column_at(0.3, 0.3) - 80, 160)
        azimuth = np.arctan2(dirs[:, 1], dirs[:, 0]).reshape(agent_type.beams, 160)
        column_width = 2.0 * np.pi / AZIMUTH_BINS
        assert np.all(azimuth.max(axis=0) - azimuth.min(axis=0) > 50 * column_width)
        ahead = np.array([np.cos(0.3), np.sin(0.3)])
        side = np.array([-ahead[1], ahead[0]])
        boxes = np.array([[*(r * ahead + s * side), 0.75, 0.4, 0.4, 0.75]
                          for r in (6.0, 9.0, 13.0) for s in (-3.0, -1.0, 1.0, 3.0)])
        self.assert_hits_boxes(pose.translation, dirs, boxes, 160)


class TestRayCastContract:
    def test_transposed_planes(self):
        # dirs as the transpose of a (3, N) array, as simulate_lidar passes them
        dirs = np.vstack([AXIS_DIRS[:4], random_dirs(np.random.default_rng(12), 236)])
        planes = np.ascontiguousarray(dirs.T)
        out = assert_ray_cast_matches([5.0, 0.5, 1.0], planes.T, 0.0, BOX, 100.0, 24)
        assert np.any(out > 0.0)

    def test_width_must_divide_the_rays(self):
        with pytest.raises(ValueError, match="width 3"):
            ray_cast([0.0, 0.0, 1.0], AXIS_DIRS[:4], 0.0, BOX, 100.0, 3)

    @pytest.mark.parametrize("box", [[10.0, 0.0, 1.0, -2.0, 1.0, 1.0],
                                     [10.0, 0.0, 1.0, 2.0, np.nan, 1.0],
                                     [np.nan, 0.0, 1.0, 2.0, 1.0, 1.0],
                                     [np.inf, 0.0, 1.0, np.inf, 1.0, 1.0]])
    def test_box_must_be_finite_and_not_inverted(self, box):
        # an inverted box with a ray parallel to its slab would read as inside it
        with pytest.raises(ValueError, match="non-negative half extents"):
            ray_cast([0.0, 0.0, 1.0], AXIS_DIRS, 0.0, [BOX[0], box], 100.0, len(AXIS_DIRS))

    def test_width_below_one(self):
        for width in (0, -1):
            with pytest.raises(ValueError, match=f"width {width}"):
                ray_cast([0.0, 0.0, 1.0], AXIS_DIRS, 0.0, BOX, 100.0, width)
