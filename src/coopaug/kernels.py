"""Hot numeric kernels: the LiDAR ray cast and the range-image scatter, in numpy."""

import numpy as np

# Kept as a constant for callers that record the backend; there is only numpy.
NUMBA_ENABLED = False
# Azimuth buckets that order the rays: uint16 keys, which numpy radix-sorts.
AZIMUTH_BUCKETS = 4096


def ray_cast(origin, dirs, ground_z, boxes, max_range):
    """Nearest hit distance per ray against ground plane and boxes.

    origin: (3,) ray origin shared by all rays. dirs: (N, 3) unit directions.
    boxes: (B, 6) rows of (cx, cy, cz, hx, hy, hz). Returns (N,) distances,
    -1 where nothing is hit within max_range.

    Each box is slab-tested only against the rays whose bird's-eye-view
    azimuth bucket overlaps the box's wedge (see `_wedge_slices`). The buckets
    only cull: every tested ray does the same float operations as a test
    against all boxes would, so a bucket never decides a hit.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    ground_z = float(ground_z)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 6)
    n = dirs.shape[0]
    keys = _azimuth_bucket(np.arctan2(dirs[:, 1], dirs[:, 0]))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # one row per axis, in bucket order: a wedge of rays is a contiguous slice
    dirs = dirs.T.take(order, axis=1)
    best = np.full(n, np.inf)
    if origin[2] > ground_z:
        dz = dirs[2]
        down = dz < 0.0
        with np.errstate(over="ignore"):  # a subnormal dz overflows to +inf: a miss
            t = np.where(down, (ground_z - origin[2]) / np.where(down, dz, -1.0), np.inf)
        best = np.where((t > 0) & (t < best), t, best)
    for b in range(boxes.shape[0]):
        lo = boxes[b, :3] - boxes[b, 3:]
        hi = boxes[b, :3] + boxes[b, 3:]
        inside = ((origin >= lo) & (origin <= hi))[:, None]
        for rays in _wedge_slices(keys, origin, lo, hi):
            d = dirs[:, rays]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t1 = (lo - origin)[:, None] / d
                t2 = (hi - origin)[:, None] / d
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2)
            # axes with zero direction: inside slab -> (-inf, inf), outside -> miss
            zero = d == 0.0
            near = np.where(zero & inside, -np.inf, near)
            far = np.where(zero, np.where(inside, np.inf, -np.inf), far)
            tmin = np.maximum(near.max(axis=0), 0.0)
            tmax = far.min(axis=0)
            hit = (tmin <= tmax) & (tmin > 0.0)
            best[rays] = np.where(hit & (tmin < best[rays]), tmin, best[rays])
    unsorted = np.empty(n)
    unsorted[order] = best
    return np.where(unsorted <= float(max_range), unsorted, -1.0)


def _azimuth_bucket(azimuth):
    """uint16 bucket of azimuths in [-pi, pi]; monotone, so wedges map to bucket ranges."""
    scaled = np.floor((np.asarray(azimuth) + np.pi) * (AZIMUTH_BUCKETS / (2.0 * np.pi)))
    return np.clip(scaled, 0, AZIMUTH_BUCKETS - 1).astype(np.uint16)


def _wedge_slices(keys, origin, lo, hi):
    """Slices of the sorted ray buckets that can reach the box [lo, hi].

    A ray that hits the box points into the angular wedge spanned, seen from
    the origin, by the four corners of the box's top-down footprint. The
    wedge is widened by 1e-9 rad, far above the rounding of `arctan2` and of
    the slab test, split in two where it crosses +-pi, and each end mapped to
    its bucket: a slice holds every ray of the wedge and maybe a few more.
    With the origin over the footprint, boundary included, all rays are kept.
    """
    if lo[0] <= origin[0] <= hi[0] and lo[1] <= origin[1] <= hi[1]:
        return (slice(None),)
    x = np.array([lo[0], hi[0], lo[0], hi[0]]) - origin[0]
    y = np.array([lo[1], lo[1], hi[1], hi[1]]) - origin[1]
    corners = np.arctan2(y, x)
    # only a footprint wholly behind the origin can span +-pi; any other one not
    # under the origin lies wholly ahead of it in x, or to one side of it in y
    if hi[0] < origin[0]:
        corners = np.where(corners < 0.0, corners + 2.0 * np.pi, corners)
    start, stop = corners.min() - 1e-9, corners.max() + 1e-9
    spans = [(start, stop)] if stop <= np.pi else [(start, np.pi), (-np.pi, stop - 2.0 * np.pi)]
    ends = _azimuth_bucket(spans)
    return tuple(slice(np.searchsorted(keys, a, "left"), np.searchsorted(keys, z, "right"))
                 for a, z in ends)


def scatter_nearest(rows, cols, ranges, intens, H, W):
    """Scatter ranges into an HxW grid keeping the smallest per pixel.

    rows and cols must lie in the grid, and ranges be positive and not NaN.
    Zero is the output's no-return sentinel; a pixel whose only ranges are
    +inf keeps +inf. Equal ranges in one pixel keep the earliest point's
    intensity. Returns (range_image, intensity_image).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    ranges = np.asarray(ranges, dtype=np.float64)
    intens = np.asarray(intens, dtype=np.float64)
    # (H, W), not (H*W,): numpy's MemoryError names the shape it could not allocate
    rimg = np.full((int(H), int(W)), np.inf)
    iimg = np.zeros((int(H), int(W)))
    touched = np.zeros((int(H), int(W)), dtype=bool)
    pixel = rows * int(W) + cols
    np.minimum.at(rimg.reshape(-1), pixel, ranges)
    touched.reshape(-1)[pixel] = True
    # the points holding their pixel's minimum, assigned last to first, so the
    # earliest of equal ranges is written last and wins
    wins = np.flatnonzero(ranges == rimg.reshape(-1)[pixel])[::-1]
    iimg.reshape(-1)[pixel[wins]] = intens[wins]
    rimg[~touched] = 0.0
    return rimg, iimg
