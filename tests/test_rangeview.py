import math

import numpy as np
import pytest

from coopaug import (AGENT_TYPES, AgentType, RngStream, density_augment,
                     make_group, make_scene, project, rangeview, resample_beams, unproject)
from coopaug.model import BLOCK_POINTS, MAX_BEAMS
from coopaug.setupaug import SetupAugParams, apply_setup_aug
from coopaug.sim import _ray_directions

from clouds import from_arrays

FOV = (-25.0, 5.0)


def cloud_of(points):
    return from_arrays(points)


class TestProject:
    def test_axis_point(self):
        img = project(cloud_of([[10.0, 0.0, 0.0]]), FOV, 64, 360)
        # theta = 0 -> column 180; phi = 0 -> 5/30 of the FOV below the top row
        rows, cols = np.nonzero(img.valid_mask())
        assert (rows[0], cols[0]) == (10, 180)
        assert img.ranges[10, 180] == 10.0

    def test_side_point_column(self):
        img = project(cloud_of([[0.0, 10.0, 0.0]]), FOV, 64, 360)
        _, cols = np.nonzero(img.valid_mask())
        assert cols[0] == 90

    def test_out_of_fov_skipped(self):
        img = project(cloud_of([[10.0, 0.0, 2.0]]), FOV, 64, 360)  # phi = 11.31 deg
        assert not img.valid_mask().any()

    def test_empty_cloud(self):
        img = project(cloud_of(np.zeros((0, 3))), FOV, 4, 8)
        assert not img.valid_mask().any()

    def test_fov_top_maps_to_row_zero(self):
        r = 10.0 / math.cos(math.radians(5.0))
        z = r * math.sin(math.radians(5.0))
        img = project(cloud_of([[10.0, 0.0, z]]), FOV, 64, 360)
        rows, _ = np.nonzero(img.valid_mask())
        assert rows[0] == 0

    def test_collision_keeps_nearest(self):
        img = project(cloud_of([[10.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), FOV, 64, 360)
        assert img.ranges[10, 180] == 5.0

    def test_fov_margin(self):
        # at each FOV bound of every built-in type, points 0.999 and 1.001
        # margins beyond it: the first lands in the edge row, the second is dropped
        margin = rangeview.FOV_MARGIN_RAD
        theta = math.pi * (1.0 - (2.0 * np.arange(4) + 1.0) / 4)  # one column each
        for t in AGENT_TYPES.values():
            f_min, f_max = math.radians(t.fov_deg[0]), math.radians(t.fov_deg[1])
            phi = np.array([f_max + 0.999 * margin, f_min - 0.999 * margin,
                            f_max + 1.001 * margin, f_min - 1.001 * margin])
            xyz = 20.0 * np.stack([np.cos(phi) * np.cos(theta), np.cos(phi) * np.sin(theta),
                                   np.sin(phi)], axis=1)
            rows, cols = np.nonzero(project(cloud_of(xyz), t.fov_deg, t.beams, 4).valid_mask())
            assert (rows.tolist(), cols.tolist()) == ([0, t.beams - 1], [0, 1])
            assert image_key(xyz, t.fov_deg, t.beams).tolist() == [0, t.beams - 1, -1, t.beams]

    def test_edge_beams_fill_edge_rows(self):
        # every ray of the top beam in row 0, every ray of the bottom beam in
        # row H - 1 (also on other CPUs: tests/test_cross_cpu.py)
        W = rangeview.AZIMUTH_BINS
        assert edge_beam_rows() == {
            key: [0] * W if key.endswith("top") else [t.beams - 1] * W
            for name, t in AGENT_TYPES.items() for key in (f"{name} top", f"{name} bottom")}

    def test_azimuth_wraps_into_columns(self):
        rng = np.random.default_rng(0)
        xyz = rng.uniform(-50, 50, (500, 3))
        xyz[:, 2] = 0.0
        img = project(cloud_of(xyz), FOV, 16, 64)
        rows, cols = np.nonzero(img.valid_mask())
        assert cols.min() >= 0 and cols.max() < 64

    @pytest.mark.parametrize("W", [1, 4, 2048])
    def test_negative_x_axis_lands_in_column_zero(self, W):
        # arctan2 is +pi at y = +0.0 and -pi at y = -0.0, which put the azimuth
        # at column 0 and at column W, the same seam; phi = 0 is row 2
        for y in (0.0, -0.0):
            img = project(cloud_of([[-10.0, y, 0.0]]), FOV, 16, W)
            assert [a.tolist() for a in np.nonzero(img.valid_mask())] == [[2], [0]]


class TestUnproject:
    def test_single_pixel_round_trip(self):
        img = project(cloud_of([[10.0, 0.0, 0.0]]), FOV, 64, 360)
        out = unproject(img)
        assert len(out) == 1
        assert np.linalg.norm(out.xyz[0]) == 10.0  # range exact
        direction = out.xyz[0] / 10.0
        angle = math.acos(np.clip(direction @ np.array([1.0, 0.0, 0.0]), -1, 1))
        half_pixel = math.hypot(math.pi / 360, math.radians(30.0) / 64 / 2)
        assert angle <= half_pixel

    def test_empty_image(self):
        img = project(cloud_of(np.zeros((0, 3))), FOV, 8, 16)
        assert len(unproject(img)) == 0

    def test_image_of_no_rows(self):
        out = unproject(rangeview.RangeImage(np.zeros((0, 16)), np.zeros((0, 16)), FOV))
        assert out.xyz.shape == (0, 3) and out.intensity.shape == (0,)

    def test_round_trip_random_cloud(self):
        rng = np.random.default_rng(1)
        n = 400
        theta = rng.uniform(-math.pi, math.pi, n)
        phi = rng.uniform(math.radians(FOV[0]), math.radians(FOV[1]), n)
        r = rng.uniform(2.0, 80.0, n)
        xyz = np.stack([r * np.cos(phi) * np.cos(theta),
                        r * np.cos(phi) * np.sin(theta),
                        r * np.sin(phi)], axis=1)
        img = project(cloud_of(xyz), FOV, 64, 2048)
        out = unproject(img)

        def ranges_of(a):  # same expression as the projection uses
            return np.sqrt(a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1] + a[:, 2] * a[:, 2])

        # collision-free pixels preserve range bitwise
        assert set(img.ranges[img.valid_mask()]).issubset(set(ranges_of(xyz)))
        # directions within half a pixel pitch
        out_theta = np.arctan2(out.xyz[:, 1], out.xyz[:, 0])
        out_phi = np.arctan2(out.xyz[:, 2], np.hypot(out.xyz[:, 0], out.xyz[:, 1]))
        rows, cols = np.nonzero(img.valid_mask())
        out_r = img.ranges[rows, cols]
        matched = {float(v): i for i, v in enumerate(ranges_of(xyz))}
        for idx in range(len(out)):
            src = matched[float(out_r[idx])]
            dt = abs((out_theta[idx] - theta[src] + math.pi) % (2 * math.pi) - math.pi)
            dp = abs(out_phi[idx] - phi[src])
            assert dt <= math.pi / 2048 + 1e-12
            assert dp <= math.radians(30.0) / 64 / 2 + 1e-12

    def test_matches_per_pixel_oracle(self):
        # each valid pixel, row-major, along its pixel-centre ray with the
        # angles' cos and sin taken per pixel; pixels with no return give none
        rng = np.random.default_rng(6)
        H, W = 24, 96
        ranges = rng.uniform(1.0, 80.0, (H, W))
        ranges[rng.uniform(size=(H, W)) < 0.4] = rangeview.NO_RETURN
        img = rangeview.RangeImage(ranges, rng.uniform(0, 1, (H, W)), FOV)
        xyz, intens = unproject_oracle(img)
        out = unproject(img)
        assert out.xyz.tobytes() == np.array(xyz).tobytes()
        assert out.intensity.tobytes() == np.array(intens).tobytes()

    @pytest.mark.parametrize("H, W", [(5, BLOCK_POINTS // 2), (2, BLOCK_POINTS + 1), (19, 2048)])
    def test_matches_per_pixel_oracle_across_blocks(self, H, W):
        # rows go through in blocks of max(1, BLOCK_POINTS // W): 2 rows with
        # a partial last block, 1 row when a row holds more than a block, and
        # 8 rows, as in density augmentation's images, with 3 left over
        rng = np.random.default_rng(H)
        ranges = rng.uniform(1.0, 80.0, (H, W))
        ranges[rng.uniform(size=(H, W)) < 0.4] = rangeview.NO_RETURN
        ranges[0, :] = rangeview.NO_RETURN  # a block's row with no return
        inf = rng.uniform(size=(H, W)) < 0.01
        ranges[rng.uniform(size=(H, W)) < 0.01] = np.nan  # no return either
        img = rangeview.RangeImage(ranges, rng.uniform(0, 1, (H, W)), FOV)
        xyz, intens = unproject_oracle(img)
        out = unproject(img)
        assert out.xyz.tobytes() == np.array(xyz).reshape(-1, 3).tobytes()
        assert out.intensity.tobytes() == np.array(intens).tobytes()
        ranges[inf] = np.inf  # a point at infinity, which the cloud refuses
        with pytest.raises(ValueError, match="non-finite"):
            unproject(img)


def unproject_oracle(img):
    """unproject's points and intensities, pixel by pixel with Python floats:
    each valid pixel, row-major, along its pixel-centre ray with the angles'
    cos and sin taken per pixel."""
    H, W = img.ranges.shape
    f_min, f_max = math.radians(img.fov_deg[0]), math.radians(img.fov_deg[1])
    ranges, intensities = img.ranges.tolist(), img.intensities.tolist()
    xyz, intens = [], []
    for row in range(H):
        phi = f_max - (f_max - f_min) * (row + 0.5) / H
        cos_phi = np.cos(phi)
        for col in range(W):
            r = ranges[row][col]
            if r > rangeview.NO_RETURN:
                theta = math.pi * (1.0 - 2.0 * (col + 0.5) / W)
                xyz.append([r * cos_phi * np.cos(theta), r * cos_phi * np.sin(theta),
                            r * np.sin(phi)])
                intens.append(intensities[row][col])
    return xyz, intens


class TestResampleBeams:
    def grid(self, H=64, W=8, fill=20.0):
        xyz = []
        f_min, f_max = math.radians(FOV[0]), math.radians(FOV[1])
        for r_idx in range(H):
            phi = f_max - (f_max - f_min) * (r_idx + 0.5) / H
            for c_idx in range(W):
                theta = math.pi * (1 - 2 * (c_idx + 0.5) / W)
                xyz.append([fill * math.cos(phi) * math.cos(theta),
                            fill * math.cos(phi) * math.sin(theta),
                            fill * math.sin(phi)])
        return project(cloud_of(xyz), FOV, H, W)

    def test_downsample_stride_two(self):
        img = self.grid()
        out = resample_beams(img, 32)
        assert np.array_equal(out.ranges, img.ranges[::2])

    def test_identity_is_bitwise(self):
        img = self.grid()
        out = resample_beams(img, 64)
        assert np.array_equal(out.ranges, img.ranges)
        assert np.array_equal(out.intensities, img.intensities)

    def test_upsample_interpolates_monotone(self):
        from coopaug.rangeview import RangeImage
        ranges = np.array([[10.0], [12.0]])
        img = RangeImage(ranges, np.ones_like(ranges), FOV)
        out = resample_beams(img, 4)
        col = out.ranges[:, 0]
        assert col[0] == 10.0 and col[-1] == 12.0
        assert np.all(np.diff(col) >= 0)
        assert np.all((col >= 10.0) & (col <= 12.0))

    def test_upsample_single_valid_neighbor(self):
        from coopaug.rangeview import RangeImage
        ranges = np.array([[10.0], [0.0]])
        img = RangeImage(ranges, np.ones_like(ranges), FOV)
        out = resample_beams(img, 4)
        assert set(out.ranges[:, 0]) <= {0.0, 10.0}

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target beam count 0"):
            resample_beams(self.grid(), 0)

    def test_downsample_never_adds_returns(self):
        img = self.grid()
        for target in (48, 32, 16, 7, 1):
            out = resample_beams(img, target)
            assert out.valid_mask().sum() <= img.valid_mask().sum()


def upsample_oracle(img, target_H):
    """resample_beams(img, target_H) for target_H > H, pixel by pixel from the
    rule with Python floats: output row k lies at s = k * H / target_H between
    input rows lo = min(floor(s), H - 1) and hi = min(ceil(s), H - 1), w = s - lo.
    A column valid (range > 0) in both gets (1 - w) * r_lo + w * r_hi and the
    intensity of row lo if w <= 0.5, else of row hi; valid in one, that row's
    range and intensity; in neither, 0 and 0."""
    H, W = img.ranges.shape
    ranges, intensities = img.ranges.tolist(), img.intensities.tolist()
    out_r = [[0.0] * W for _ in range(target_H)]
    out_i = [[0.0] * W for _ in range(target_H)]
    for k in range(target_H):
        s = k * H / target_H
        lo, hi = min(math.floor(s), H - 1), min(math.ceil(s), H - 1)
        w = s - lo
        for col in range(W):
            r_lo, r_hi = ranges[lo][col], ranges[hi][col]
            if r_lo > rangeview.NO_RETURN and r_hi > rangeview.NO_RETURN:
                out_r[k][col] = (1.0 - w) * r_lo + w * r_hi
                out_i[k][col] = intensities[lo if w <= 0.5 else hi][col]
            elif r_lo > rangeview.NO_RETURN:
                out_r[k][col], out_i[k][col] = r_lo, intensities[lo][col]
            elif r_hi > rangeview.NO_RETURN:
                out_r[k][col], out_i[k][col] = r_hi, intensities[hi][col]
    return np.array(out_r), np.array(out_i)


class TestUpsampleOracle:
    """resample_beams with target_H > H against upsample_oracle, byte for byte."""

    def image(self, H, W, seed):
        # ~40% no return, so columns have both, one or neither neighbour
        # valid, and a few +inf ranges
        rng = np.random.default_rng(seed)
        ranges = rng.uniform(1.0, 80.0, (H, W))
        ranges[rng.uniform(size=(H, W)) < 0.4] = rangeview.NO_RETURN
        ranges[rng.uniform(size=(H, W)) < 0.05] = np.inf
        return rangeview.RangeImage(ranges, rng.uniform(0, 1, (H, W)), FOV)

    @pytest.mark.parametrize("H, target_H", [
        (1, 2), (1, 3), (1, 16),  # lo = hi = 0, with w != 0 past row 0
        (4, 8), (32, 64),         # T = 2H: every other row at an integer s, the rest at w = 0.5
        (3, 12),                  # w = 0.25, 0.5 and 0.75
        (32, 40), (40, 64), (5, 7), (127, 129),  # targets no multiple of H
    ])
    def test_matches_oracle(self, H, target_H):
        img = self.image(H, 64, seed=H * 1000 + target_H)
        # +inf at an integer s gives inf + 0 * inf = NaN, which numpy warns of
        with np.errstate(invalid="ignore"):
            out = resample_beams(img, target_H)
            ranges, intens = upsample_oracle(img, target_H)
        assert out.ranges.tobytes() == ranges.tobytes()
        assert out.intensities.tobytes() == intens.tobytes()
        assert (out.H, out.W, out.fov_deg) == (target_H, 64, FOV)

    def test_cases_are_reached(self):
        # the parametrized cases reach the edges of the rule they are named for
        for H, target_H in [(1, 3), (32, 40), (40, 64)]:
            s = np.arange(target_H) * H / target_H
            clipped = np.ceil(s) > H - 1
            assert (clipped & (s != np.floor(s))).any()  # hi clipped at w > 0
        img = self.image(4, 64, seed=4008)
        valid = img.valid_mask()
        assert (valid[1] & valid[2]).any() and (valid[1] ^ valid[2]).any()
        assert (img.ranges == np.inf).any()
        with np.errstate(invalid="ignore"):
            out = resample_beams(img, 8)
        assert np.isnan(out.ranges[::2]).any()  # +inf at an integer s
        assert np.isinf(out.ranges[1::2]).any()

    def test_tie_takes_lo_intensity(self):
        img = rangeview.RangeImage(np.array([[10.0], [20.0]]), np.array([[0.25], [0.75]]),
                                   FOV)
        out = resample_beams(img, 4)  # row 1 at s = 0.5, row 3 at s = 1.5, hi clipped
        assert out.ranges[:, 0].tolist() == [10.0, 15.0, 20.0, 20.0]
        assert out.intensities[:, 0].tolist() == [0.25, 0.25, 0.75, 0.75]

    def test_nan_rows_are_dropped_by_unproject(self):
        # +inf at row 0 is NaN on the output rows at integer s and +inf between
        img = rangeview.RangeImage(np.array([[np.inf] * 2, [20.0] * 2]), np.ones((2, 2)),
                                   FOV)
        with np.errstate(invalid="ignore"):
            out = resample_beams(img, 4)
        assert np.isnan(out.ranges[0]).all() and (out.ranges[1] == np.inf).all()
        with pytest.raises(ValueError, match="non-finite"):
            unproject(out)  # the +inf row's points
        finite = rangeview.RangeImage(np.where(np.isinf(out.ranges), rangeview.NO_RETURN,
                                               out.ranges), out.intensities, FOV)
        assert len(unproject(finite)) == 4


class TestDensityAugment:
    def dense_cloud(self, beams=64, W=256, r=30.0):
        f_min, f_max = math.radians(FOV[0]), math.radians(FOV[1])
        phi = f_max - (f_max - f_min) * (np.arange(beams) + 0.5) / beams
        theta = math.pi * (1 - 2 * (np.arange(W) + 0.5) / W)
        pp, tt = np.meshgrid(phi, theta, indexing="ij")
        xyz = np.stack([r * np.cos(pp) * np.cos(tt),
                        r * np.cos(pp) * np.sin(tt),
                        r * np.sin(pp)], axis=-1).reshape(-1, 3)
        return cloud_of(xyz)

    def test_target_beam_count(self, monkeypatch):
        monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (32,))
        out = density_augment(self.dense_cloud(), AGENT_TYPES["A"], RngStream(0, "d"))
        phi = np.arctan2(out.xyz[:, 2], np.hypot(out.xyz[:, 0], out.xyz[:, 1]))
        assert len(np.unique(phi.round(9))) == 32

    def test_empty_cloud(self):
        out = density_augment(cloud_of(np.zeros((0, 3))), AGENT_TYPES["A"], RngStream(0, "d"))
        assert len(out) == 0

    def test_identity_target_is_round_trip(self, monkeypatch):
        monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (64,))
        cloud = self.dense_cloud()
        out = density_augment(cloud, AGENT_TYPES["A"], RngStream(0, "d"))
        img = project(cloud, AGENT_TYPES["A"].fov_deg, 64, rangeview.AZIMUTH_BINS)
        expected = unproject(img)
        assert np.array_equal(out.xyz, expected.xyz)

    def test_output_inside_fov(self, monkeypatch):
        monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (16, 128))
        out = density_augment(self.dense_cloud(), AGENT_TYPES["A"], RngStream(3, "d"))
        phi = np.degrees(np.arctan2(out.xyz[:, 2], np.hypot(out.xyz[:, 0], out.xyz[:, 1])))
        assert phi.min() >= FOV[0] - 1e-9 and phi.max() <= FOV[1] + 1e-9

    def test_outputs_hold_only_their_points(self, monkeypatch):
        # the arrays own their memory, not views of buffers sized for every pixel
        cloud = self.dense_cloud()
        img = project(cloud, AGENT_TYPES["A"].fov_deg, 64, rangeview.AZIMUTH_BINS)
        outs = [unproject(img)]
        for target in (16, 64, 128):  # down, same and up
            monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (target,))
            outs.append(density_augment(cloud, AGENT_TYPES["A"], RngStream(0, "d")))
        # the setup jitter, as `cmag` applies it to the re-beamed cloud, writes new
        # points and passes that cloud's read-only intensities through
        rebeamed = outs[-1]
        jittered = apply_setup_aug(rebeamed, SetupAugParams(0.01, 1.01, np.array([0.02, 0.0, 0.0])))
        assert not np.shares_memory(jittered.xyz, rebeamed.xyz)
        assert not np.shares_memory(jittered.xyz, rebeamed.intensity)
        outs.append(jittered)
        for out in outs:
            assert len(out) > 0 and out.xyz.base is None and out.intensity.base is None


def image_key(xyz, fov_deg, H):
    """The row `project` gives each point of an H-row image: -1 more than
    FOV_MARGIN_RAD above the FOV and H more than it below; the points within
    the margins go to rows 0 and H - 1."""
    f_min, f_max = math.radians(fov_deg[0]), math.radians(fov_deg[1])
    margin = rangeview.FOV_MARGIN_RAD
    x, y, z = xyz.T
    phi = np.arctan2(z, np.hypot(x, y))
    ry = np.clip(np.floor((f_max - phi) / (f_max - f_min) * H), 0, H - 1)
    return np.where(phi > f_max + margin, -1,
                    np.where(phi < f_min - margin, H, ry)).astype(np.int64)


def edge_beam_rows():
    """For each built-in type, the rows of the pixels that its ray grid's top
    and bottom beams fill, at ranges from 1 m to 280 m: the simulator puts
    these beams on the FOV bounds."""
    ranges = np.random.default_rng(0).uniform(1.0, 280.0, (rangeview.AZIMUTH_BINS, 1))
    rows = {}
    for name, t in AGENT_TYPES.items():
        dirs = _ray_directions(t).reshape(t.beams, rangeview.AZIMUTH_BINS, 3)
        for beam, label in ((-1, "top"), (0, "bottom")):
            img = project(cloud_of(dirs[beam] * ranges), t.fov_deg, t.beams,
                          rangeview.AZIMUTH_BINS)
            rows[f"{name} {label}"] = np.nonzero(img.valid_mask())[0].tolist()
    return rows


def boundary_points(fov_deg, H, rng, edges=None):
    """For each of the H + 1 edges of an H-row image (row k - 1 above, row k
    below, k = 0 and k = H the FOV's upper and lower bounds), or for the edges
    k in `edges`, the two points a float step apart in z that lie on either
    side of it, found by bisection."""
    f_min, f_max = math.radians(fov_deg[0]), math.radians(fov_deg[1])
    f = f_max - f_min
    k = np.arange(H + 1) if edges is None else np.asarray(edges)
    theta = rng.uniform(-math.pi, math.pi, len(k))
    r = rng.uniform(5.0, 80.0, len(k))
    x, y = r * np.cos(theta), r * np.sin(theta)
    hyp = np.hypot(x, y)
    hi = hyp * np.tan(f_max - f * (k - 0.5) / H)  # the middle of row k - 1
    lo = hyp * np.tan(f_max - f * (k + 0.5) / H)  # the middle of row k

    def key(z):
        return image_key(np.stack([x, y, z], axis=1), fov_deg, H)

    assert (key(hi) == k - 1).all() and (key(lo) == k).all()
    for _ in range(2100):  # enough halvings to cross every float between them
        mid = lo + (hi - lo) / 2
        below = key(mid) >= k
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    assert (np.nextafter(lo, hi) == hi).all()
    return np.concatenate([np.stack([x, y, lo], axis=1), np.stack([x, y, hi], axis=1)])


def edge_cloud(seed=0):
    """More than two BLOCK_POINTS blocks of points: both sides of every row
    edge and FOV edge of each built-in type's image, points far outside every
    FOV, points at the origin, exact copies of points (equal ranges in one
    pixel) and a random fill, shuffled."""
    rng = np.random.default_rng(seed)
    edges = [boundary_points(t.fov_deg, t.beams, rng) for t in AGENT_TYPES.values()]
    n_fill = 2 * BLOCK_POINTS + 3000
    phi = np.radians(rng.uniform(-35.0, 20.0, n_fill))
    theta = rng.uniform(-math.pi, math.pi, n_fill)
    r = rng.uniform(1.0, 150.0, n_fill)
    fill = np.stack([r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta),
                     r * np.sin(phi)], axis=1)
    outside = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -5.0], [1.0, 1.0, 40.0], [3.0, 0.0, -9.0]])
    origin = np.zeros((5, 3))
    xyz = np.concatenate([*edges, fill, outside, origin])
    xyz = np.concatenate([xyz, xyz[rng.choice(len(xyz), 500)]])  # ties
    order = rng.permutation(len(xyz))
    return from_arrays(xyz[order], rng.uniform(0.0, 1.0, len(xyz)))


@pytest.fixture(scope="module")
def golden_agents():
    scene = make_scene(32, [AGENT_TYPES[t] for t in "CEA"], RngStream(3, "golden"))
    return make_group(scene, RngStream(3, "golden-lidar")).agents


@pytest.fixture(scope="module")
def golden_clouds(golden_agents):
    return [a.cloud for a in golden_agents]


# Custom types beside the built-in ones: 1 beam, which every target
# upsamples, and 127, one beam short of the largest target.
CUSTOM_TYPES = tuple(AgentType(f"X{beams}", beams, 90.0, (-25.0, 10.0), 0.01, "Sim", "Vehicle")
                     for beams in (1, 127))
# Targets beside DENSITY_TARGETS, which are all multiples of 8, so that the
# upsampled rows also end in a partial block of 8 rows: 3, 37 and 129.
EXTRA_TARGETS = (3, 37, 129)


class TestDensityAugmentOracle:
    """density_augment against the composition it shortcuts, byte for byte,
    for every built-in type and every density target, and for the custom
    types and extra targets above."""

    def assert_matches_composition(self, cloud, monkeypatch):
        for agent_type in (*AGENT_TYPES.values(), *CUSTOM_TYPES):
            img = project(cloud, agent_type.fov_deg, agent_type.beams, rangeview.AZIMUTH_BINS)
            for target in (*rangeview.DENSITY_TARGETS, *EXTRA_TARGETS):
                expected = unproject(resample_beams(img, target))
                with monkeypatch.context() as m:
                    m.setattr(rangeview, "DENSITY_TARGETS", (target,))
                    out = density_augment(cloud, agent_type, RngStream(0, "oracle"))
                assert out.xyz.tobytes() == expected.xyz.tobytes(), (agent_type.name, target)
                assert out.intensity.tobytes() == expected.intensity.tobytes()

    def test_golden_scene_clouds(self, golden_clouds, monkeypatch):
        for cloud in golden_clouds:
            self.assert_matches_composition(cloud, monkeypatch)

    def test_edge_cloud(self, monkeypatch):
        cloud = edge_cloud()
        assert len(cloud) > 2 * BLOCK_POINTS
        for t in AGENT_TYPES.values():
            keys = image_key(cloud.xyz, t.fov_deg, t.beams)
            # every row holds a point on each of its edges; both FOV edges are
            # crossed, and points lie outside the FOV and at the origin
            assert set(range(-1, t.beams + 1)) <= set(keys.tolist())
        assert (np.abs(cloud.xyz).sum(axis=1) == 0).sum() >= 5
        self.assert_matches_composition(cloud, monkeypatch)

    def test_empty_cloud(self, monkeypatch):
        self.assert_matches_composition(cloud_of(np.zeros((0, 3))), monkeypatch)

    def test_cloud_outside_every_fov(self, monkeypatch):
        rng = np.random.default_rng(2)
        theta = rng.uniform(-math.pi, math.pi, 1000)
        phi = np.radians(rng.choice([-1.0, 1.0], 1000) * rng.uniform(40.0, 89.0, 1000))
        r = rng.uniform(1.0, 100.0, 1000)
        xyz = np.stack([r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta),
                        r * np.sin(phi)], axis=1)
        cloud = cloud_of(np.concatenate([xyz, np.zeros((3, 3))]))
        for t in (*AGENT_TYPES.values(), *CUSTOM_TYPES):
            assert not project(cloud, t.fov_deg, t.beams, rangeview.AZIMUTH_BINS).valid_mask().any()
        self.assert_matches_composition(cloud, monkeypatch)


def project_oracle(cloud, fov_deg, H, W, kept_rows=None):
    """`project`'s range and intensity images, point by point: each point's row
    from image_key, its column and range from the expressions below, and in a
    dict the nearest return of each pixel, the earliest of equal ranges."""
    x, y, z = cloud.xyz.T
    with np.errstate(over="ignore"):
        ranges = np.sqrt(x * x + y * y + z * z)
    cols = np.remainder(np.floor(0.5 * (1.0 - np.arctan2(y, x) / math.pi) * W).astype(np.int64),
                        W)
    out_rows = {row: i for i, row in enumerate(range(H) if kept_rows is None else kept_rows)}
    pixels = {}
    for key, col, r, intensity in zip(image_key(cloud.xyz, fov_deg, H).tolist(), cols.tolist(),
                                      ranges.tolist(), cloud.intensity.tolist()):
        if key in out_rows and r > 0.0:
            pixel = (out_rows[key], col)
            if pixel not in pixels or r < pixels[pixel][0]:
                pixels[pixel] = (r, intensity)
    rimg, iimg = np.zeros((len(out_rows), W)), np.zeros((len(out_rows), W))
    for (row, col), (r, intensity) in pixels.items():
        rimg[row, col], iimg[row, col] = r, intensity
    return rimg, iimg


# The FOV of a custom type with MAX_BEAMS rows, each 2.7e-10 rad high.
TINY_FOV_DEG = (30.0, 30.001)


def spherical(r, phi, theta):
    return np.stack([r * np.cos(phi) * np.cos(theta), r * np.cos(phi) * np.sin(theta),
                     r * np.sin(phi)], axis=1)


class TestProjectOracle:
    """project against project_oracle, byte for byte, with all rows and with
    kept rows that hold the top edge row or the bottom one: on row edges, at
    the FOV margins, where x*x + y*y overflows or underflows, and for a custom
    type with MAX_BEAMS rows in a 0.001 degree FOV."""

    def assert_matches(self, xyz, fov_deg, H, W=64):
        rng = np.random.default_rng(len(xyz))
        cloud = from_arrays(xyz, rng.uniform(0.0, 1.0, len(xyz)))
        for kept_rows in (None, list(range(0, H, 2)), list(range(H - 1, -1, -3))[::-1]):
            with np.errstate(over="ignore"):  # the ranges of far points overflow
                img = project(cloud, fov_deg, H, W,
                              None if kept_rows is None else np.array(kept_rows))
            ranges, intensities = project_oracle(cloud, fov_deg, H, W, kept_rows)
            assert img.ranges.tobytes() == ranges.tobytes()
            assert img.intensities.tobytes() == intensities.tobytes()

    def fill(self, fov_deg, rng, n=3000, r=(1.0, 150.0)):
        """n points spread over the FOV and a little past both bounds."""
        f_min, f_max = math.radians(fov_deg[0]), math.radians(fov_deg[1])
        pad = 0.05 * (f_max - f_min)
        return spherical(rng.uniform(*r, n), rng.uniform(f_min - pad, f_max + pad, n),
                         rng.uniform(-math.pi, math.pi, n))

    def test_row_edges(self):
        rng = np.random.default_rng(0)
        for t in (*AGENT_TYPES.values(), *CUSTOM_TYPES):
            xyz = np.concatenate([boundary_points(t.fov_deg, t.beams, rng),
                                  self.fill(t.fov_deg, rng)])
            self.assert_matches(xyz, t.fov_deg, t.beams)

    def test_fov_margins(self):
        rng = np.random.default_rng(1)
        margin = rangeview.FOV_MARGIN_RAD
        steps = np.array([-2.0, -1.001, -0.999, -0.5, 0.0, 0.5, 0.999, 1.001, 2.0]) * margin
        for fov_deg, H, W in [*((t.fov_deg, t.beams, 64)
                                for t in (*AGENT_TYPES.values(), *CUSTOM_TYPES)),
                              (TINY_FOV_DEG, MAX_BEAMS, 4)]:
            f_min, f_max = math.radians(fov_deg[0]), math.radians(fov_deg[1])
            phi = np.repeat(np.concatenate([f_max + steps, f_min + steps]), 20)
            xyz = spherical(rng.uniform(1.0, 150.0, len(phi)), phi,
                            rng.uniform(-math.pi, math.pi, len(phi)))
            assert {-1, 0, H - 1, H} <= set(image_key(xyz, fov_deg, H).tolist())
            self.assert_matches(xyz, fov_deg, H, W)

    def test_overflow_and_underflow(self):
        # |x| near 1e160 squares past the largest double, near 1e-160 into the
        # subnormals; 1e150 and 1e-140 square to about 1e300 and 1e-280, the ends
        # of the range where `project` decides rows without `hypot`
        rng = np.random.default_rng(2)
        t = AGENT_TYPES["A"]
        clouds = [self.fill(t.fov_deg, rng, 400, (0.5 * scale, 2.0 * scale))
                  for scale in (1e160, 1e154, 1e150, 1e-140, 1e-155, 1e-160, 1e-162)]
        xyz = np.concatenate(clouds)
        with np.errstate(over="ignore"):
            s2 = xyz[:, 0] * xyz[:, 0] + xyz[:, 1] * xyz[:, 1]
        assert (s2 == np.inf).any() and ((s2 > 0) & (s2 < np.finfo(float).tiny)).any()
        self.assert_matches(xyz, t.fov_deg, t.beams)

    def test_max_beams_in_a_tiny_fov(self):
        # a row is 2.7e-10 rad high, less than ROW_MARGIN_RAD: every point takes
        # the exact path, where a margin of a fixed number of rows would not send
        # them; half a row is inside FOV_MARGIN_RAD, so the FOV's own edges have
        # no points on either side, and test_fov_margins covers them
        H = MAX_BEAMS
        rng = np.random.default_rng(3)
        edges = np.unique(np.concatenate([np.arange(1, 40), rng.integers(1, H, 120),
                                          np.arange(H - 39, H)]))
        xyz = np.concatenate([boundary_points(TINY_FOV_DEG, H, rng, edges),
                              self.fill(TINY_FOV_DEG, rng)])
        self.assert_matches(xyz, TINY_FOV_DEG, H, W=4)


def test_exact_path_share(golden_agents, monkeypatch):
    # re-beaming the golden scene's clouds to every density target sends under
    # 5% of their points down project's exact path, and some
    exact_rows, reached = rangeview._exact_rows, []
    monkeypatch.setattr(rangeview, "_exact_rows",
                        lambda x, *args: reached.append(len(x)) or exact_rows(x, *args))
    total = 0
    for agent in golden_agents:
        for target in rangeview.DENSITY_TARGETS:
            monkeypatch.setattr(rangeview, "DENSITY_TARGETS", (target,))
            density_augment(agent.cloud, agent.agent_type, RngStream(0, "pin"))
            total += len(agent.cloud)
    assert 0 < sum(reached) < 0.05 * total
