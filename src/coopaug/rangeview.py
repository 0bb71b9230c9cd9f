"""Range-view projection, unprojection, and beam-count resampling."""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import scatter_nearest
from .model import BLOCK_POINTS, AgentType, PointCloud, RngStream

NO_RETURN = 0.0
# Azimuth columns of the simulated ray grid and of augmentation range images.
AZIMUTH_BINS = 2048
# Beam counts density augmentation re-beams to: common LiDAR beam counts.
DENSITY_TARGETS = (16, 32, 40, 64, 128)
# Elevations this far outside the FOV stay in its edge rows: arctan2's last bit varies by CPU.
FOV_MARGIN_RAD = 1e-9


@dataclass(frozen=True)
class RangeImage:
    """Beam-by-azimuth grid of ranges (0 marks no return) with intensities."""

    ranges: np.ndarray       # (H, W) float64, 0 where no return
    intensities: np.ndarray  # (H, W) float64
    fov_deg: tuple[float, float]

    @property
    def H(self) -> int:
        return self.ranges.shape[0]

    @property
    def W(self) -> int:
        return self.ranges.shape[1]

    def valid_mask(self) -> np.ndarray:
        return self.ranges > NO_RETURN


def project(cloud: PointCloud, fov_deg: tuple[float, float], H: int, W: int,
            kept_rows: np.ndarray | None = None) -> RangeImage:
    """Spherical projection into an H x W range image.

    Azimuth theta maps to columns with theta = pi at column 0; elevation phi
    maps the FOV upper bound to row 0 and the lower bound to row H-1. Points
    more than FOV_MARGIN_RAD outside the vertical FOV are dropped; pixel
    collisions keep the nearest return (first-return behavior). With
    `kept_rows` (increasing rows of H), the image holds only those rows: the
    points of every other row are dropped before their azimuth is taken.
    """
    f_min = math.radians(fov_deg[0])
    f_max = math.radians(fov_deg[1])
    f = f_max - f_min
    if kept_rows is not None:
        # each row's index among the kept rows plus one, 0 for a dropped row
        row_map = np.zeros(H, dtype=np.int64)
        row_map[kept_rows] = np.arange(1, len(kept_rows) + 1)
    n = len(cloud)
    rows, cols = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    ranges, intens = np.empty(n), np.empty(n)
    m = 0  # points kept so far
    for start in range(0, n, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        x, y, z = cloud.xyz[block].T
        phi = np.arctan2(z, np.hypot(x, y))
        rng = np.sqrt(x * x + y * y + z * z)
        kept = np.flatnonzero((phi >= f_min - FOV_MARGIN_RAD) & (phi <= f_max + FOV_MARGIN_RAD)
                              & (rng > 0))
        row = np.clip(np.floor((f_max - phi.take(kept)) / f * H).astype(np.int64), 0, H - 1)
        if kept_rows is not None:
            row = row_map.take(row)
            in_kept = np.flatnonzero(row)
            kept = kept.take(in_kept)
            row = row.take(in_kept) - 1
        out = slice(m, m + len(kept))
        m += len(kept)
        rows[out] = row
        rx = 0.5 * (1.0 - np.arctan2(y.take(kept), x.take(kept)) / math.pi) * W
        np.remainder(np.floor(rx).astype(np.int64), W, out=cols[out])
        # mode "clip" writes to `out` directly, where "raise" would buffer a copy
        rng.take(kept, out=ranges[out], mode="clip")
        cloud.intensity[block].take(kept, out=intens[out], mode="clip")
    H_out = H if kept_rows is None else len(kept_rows)
    rimg, iimg = scatter_nearest(rows[:m], cols[:m], ranges[:m], intens[:m], H_out, W)
    return RangeImage(rimg, iimg, fov_deg)


def unproject(img: RangeImage) -> PointCloud:
    """One point per valid pixel, along the pixel-center ray, range preserved."""
    return _unproject(lambda rows: (img.ranges[rows], img.intensities[rows]),
                      img.H, img.W, img.fov_deg)


def _unproject(rows_of, H: int, W: int, fov_deg: tuple[float, float]) -> PointCloud:
    """`unproject` of the H x W image whose rows `rows_of(slice)` gives as (ranges,
    intensities), `max(1, BLOCK_POINTS // W)` rows at a time: no whole-image temporary."""
    f_min = math.radians(fov_deg[0])
    f_max = math.radians(fov_deg[1])
    f = f_max - f_min
    step = max(1, BLOCK_POINTS // max(W, 1))
    # the angles depend only on the row or the column: cos and sin come from tables
    # H long and a block's rows of W long, which the valid mask picks from like the ranges
    theta = math.pi * (1.0 - 2.0 * (np.arange(W) + 0.5) / W)
    phi = f_max - f * (np.arange(H) + 0.5) / H
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_theta, sin_theta = (np.tile(t, (min(step, H), 1)) for t in (np.cos(theta), np.sin(theta)))
    # each row block's points, joined once at the end; an image of no rows has none
    xyz, intens = [np.empty((0, 3))], [np.empty(0)]
    for first in range(0, H, step):
        block = slice(first, first + step)
        ranges, intensities = rows_of(block)
        valid = ranges > NO_RETURN
        r = ranges[valid]
        intens.append(intensities[valid])
        per_row = np.count_nonzero(valid, axis=1)
        r_cos_phi = r * cos_phi[block].repeat(per_row)
        out = np.empty((len(r), 3))
        np.multiply(r_cos_phi, cos_theta[:len(valid)][valid], out=out[:, 0])
        np.multiply(r_cos_phi, sin_theta[:len(valid)][valid], out=out[:, 1])
        np.multiply(r, sin_phi[block].repeat(per_row), out=out[:, 2])
        xyz.append(out)
    return PointCloud(np.concatenate(xyz), np.concatenate(intens))


def _kept_rows(H: int, target_H: int) -> np.ndarray:
    """The rows of H that downsampling to target_H <= H rows keeps, in order."""
    return (np.arange(target_H) * H) // target_H


def resample_beams(img: RangeImage, target_H: int) -> RangeImage:
    """Change the beam (row) count: strided selection down, linear ranges up."""
    if target_H < 1:
        raise ValueError(f"target beam count {target_H} < 1")
    H = img.H
    if target_H <= H:
        rows = _kept_rows(H, target_H)
        return RangeImage(img.ranges[rows], img.intensities[rows], img.fov_deg)
    return RangeImage(*_upsampled_rows(img, target_H, slice(None)), img.fov_deg)


def _upsampled_rows(img: RangeImage, target_H: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """Rows `rows` of img upsampled to target_H > H rows, as (ranges, intensities): row k
    lies at s = k * H / target_H between rows lo and hi; a column's range is interpolated
    where both are valid, else taken from the valid one; its intensity is the nearer row's,
    lo's at a tie."""
    H = img.H
    s = np.arange(target_H)[rows] * H / target_H
    lo = np.minimum(np.floor(s).astype(np.int64), H - 1)
    hi = np.minimum(np.ceil(s).astype(np.int64), H - 1)
    w = (s - lo)[:, None]
    r_lo, r_hi = img.ranges[lo], img.ranges[hi]
    i_lo, i_hi = img.intensities[lo], img.intensities[hi]
    v_lo, v_hi = r_lo > NO_RETURN, r_hi > NO_RETURN
    both = v_lo & v_hi
    ranges = np.where(both, (1.0 - w) * r_lo + w * r_hi,
                      np.where(v_lo, r_lo, np.where(v_hi, r_hi, NO_RETURN)))
    near_lo = w <= 0.5
    intens = np.where(both, np.where(near_lo, i_lo, i_hi),
                      np.where(v_lo, i_lo, np.where(v_hi, i_hi, 0.0)))
    return ranges, intens


def density_augment(cloud: PointCloud, agent_type: AgentType, rng: RngStream) -> PointCloud:
    """Re-beam a cloud to a randomly chosen target beam count.

    Always goes through the range image, so the azimuth/elevation quantization
    is applied uniformly even when the target equals the native beam count.
    Downsampling projects only the points of the rows `resample_beams` keeps:
    a pixel's points all lie in its row, so the image is the same.
    Upsampling interpolates and unprojects a block of rows at a time.
    """
    target = int(rng.choice(DENSITY_TARGETS))
    H = agent_type.beams
    if target > H:
        img = project(cloud, agent_type.fov_deg, H, AZIMUTH_BINS)
        return _unproject(lambda rows: _upsampled_rows(img, target, rows),
                          target, AZIMUTH_BINS, img.fov_deg)
    return unproject(project(cloud, agent_type.fov_deg, H, AZIMUTH_BINS, _kept_rows(H, target)))
