"""Hot numeric kernels: the LiDAR ray cast and the range-image scatter, in numpy."""

import numpy as np

# Kept as a constant for callers that record the backend; there is only numpy.
NUMBA_ENABLED = False


def ray_cast(origin, dirs, ground_z, boxes, max_range):
    """Nearest hit distance per ray against ground plane and boxes.

    origin: (3,) ray origin shared by all rays. dirs: (N, 3) unit directions.
    boxes: (B, 6) rows of (cx, cy, cz, hx, hy, hz). Returns (N,) distances,
    -1 where nothing is hit within max_range.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    ground_z = float(ground_z)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 6)
    n = dirs.shape[0]
    best = np.full(n, np.inf)
    if origin[2] > ground_z:
        dz = dirs[:, 2]
        down = dz < 0.0
        t = np.where(down, (ground_z - origin[2]) / np.where(down, dz, -1.0), np.inf)
        best = np.where((t > 0) & (t < best), t, best)
    for b in range(boxes.shape[0]):
        lo = boxes[b, :3] - boxes[b, 3:]
        hi = boxes[b, :3] + boxes[b, 3:]
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origin) / dirs
            t2 = (hi - origin) / dirs
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        # axes with zero direction: inside slab -> (-inf, inf), outside -> miss
        zero = dirs == 0.0
        inside = (origin >= lo) & (origin <= hi)
        near = np.where(zero & inside, -np.inf, near)
        far = np.where(zero, np.where(inside, np.inf, -np.inf), far)
        tmin = np.maximum(near.max(axis=1), 0.0)
        tmax = far.min(axis=1)
        hit = (tmin <= tmax) & (tmin > 0.0)
        best = np.where(hit & (tmin < best), tmin, best)
    return np.where(best <= float(max_range), best, -1.0)


def scatter_nearest(rows, cols, ranges, intens, H, W):
    """Scatter ranges into an HxW grid keeping the smallest per pixel.

    Zero is the no-return sentinel; valid input ranges must be positive.
    Equal ranges in one pixel keep the earliest point.
    Returns (range_image, intensity_image).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    ranges = np.asarray(ranges, dtype=np.float64)
    intens = np.asarray(intens, dtype=np.float64)
    rimg = np.zeros((int(H), int(W)))
    iimg = np.zeros((int(H), int(W)))
    # assign in decreasing range order so the nearest return lands last;
    # among equal ranges the earliest point is assigned last
    order = np.lexsort((-np.arange(ranges.shape[0]), -ranges))
    rimg[rows[order], cols[order]] = ranges[order]
    iimg[rows[order], cols[order]] = intens[order]
    return rimg, iimg
