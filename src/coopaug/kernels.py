"""Hot numeric kernels: the LiDAR ray cast and the range-image scatter, in numpy."""

import numpy as np

# Kept as a constant for callers that record the backend; there is only numpy.
NUMBA_ENABLED = False


def ray_cast(origin, dirs, ground_z, boxes, max_range, width):
    """Nearest hit distance per ray against ground plane and boxes.

    origin: (3,) ray origin shared by all rays. dirs: (N, 3) unit directions, rows of
    `width` rays, ray k of a row in sensor column k (ValueError unless width >= 1 divides
    N); the transpose of a contiguous (3, N) array is not copied. boxes: (B, 6) finite rows
    of (cx, cy, cz, hx, hy, hz), half extents non-negative (ValueError otherwise). Returns
    (N,) distances, -1 where nothing is hit within max_range.

    A ray parallel to a slab meets the box only from inside that slab, faces included: on a
    face 0 / 0 gives NaN, which `np.fmax` and `np.fmin` skip. Each box is slab-tested, with no
    sort, only against the runs of columns holding a ray of its azimuth wedge (`_column_runs`).
    Culling never decides a hit: a tested ray does the float operations of an unculled test.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 6)
    if width < 1 or len(dirs) % width:
        raise ValueError(f"{len(dirs)} rays do not fill rows of width {width}")
    if not (np.isfinite(boxes).all() and (boxes[:, 3:] >= 0.0).all()):
        raise ValueError("boxes need finite values and non-negative half extents")
    # per-axis (rows, width) planes, a view for a transposed (3, N) dirs: column runs are 2-D slices
    planes = np.ascontiguousarray(dirs.T).reshape(3, -1, width)
    # each column's least and greatest azimuth; they differ on a tilted sensor
    azimuth = np.arctan2(planes[1], planes[0])
    lo, hi = boxes[:, :3] - boxes[:, 3:], boxes[:, :3] + boxes[:, 3:]
    runs = _column_runs(azimuth.min(0, initial=np.pi), azimuth.max(0, initial=-np.pi),
                        origin, lo, hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # only rays pointing down reach the ground from above it: a dz of +0
        # gives -inf, -0 or a subnormal dz +inf, NaN stays NaN; all miss
        best = (float(ground_z) - origin[2]) / planes[2]
        np.copyto(best, np.inf, where=~((best > 0.0) & (best < np.inf) & (origin[2] > ground_z)))
        for b, first, end in runs:
            d = planes[:, :, first:end]
            t1 = (lo[b] - origin)[:, None, None] / d
            t2 = (hi[b] - origin)[:, None, None] / d
            tmin = np.fmax.reduce(np.minimum(t1, t2), axis=0)
            tmax = np.fmin.reduce(np.maximum(t1, t2, out=t1), axis=0)
            nearest = best[:, first:end]
            np.copyto(nearest, tmin, where=(tmin <= tmax) & (tmin > 0.0) & (tmin < nearest))
    np.copyto(best, -1.0, where=~(best <= float(max_range)))
    return best.reshape(-1)


def _column_runs(amin, amax, origin, lo, hi):
    """(box, first column, end column) of each run of columns, box by box,
    that can reach the boxes with (B, 3) corners lo and hi.

    A ray that hits a box points into the angular wedge spanned, seen from
    the origin, by the four corners of the box's top-down footprint. The
    wedge is widened by 1e-9 rad, far above the rounding of `arctan2` and of
    the slab test. A column is kept when its azimuths [amin, amax] meet the
    wedge, or the wedge one turn lower (its part past +pi), or when the origin
    is over the footprint, boundary included.
    """
    x = np.stack([lo[:, 0], hi[:, 0], lo[:, 0], hi[:, 0]], axis=1) - origin[0]
    y = np.stack([lo[:, 1], lo[:, 1], hi[:, 1], hi[:, 1]], axis=1) - origin[1]
    corners = np.arctan2(y, x)
    # only a footprint wholly behind the origin can span +-pi; any other one not
    # under the origin lies wholly ahead of it in x, or to one side of it in y
    corners[(hi[:, :1] < origin[0]) & (corners < 0.0)] += 2.0 * np.pi
    start, stop = corners.min(axis=1) - 1e-9, corners.max(axis=1) + 1e-9
    meets = (amax >= start[:, None]) & (amin <= stop[:, None])
    # past +pi the wedge goes on from -pi, one turn lower
    meets |= (amax >= (start - 2.0 * np.pi)[:, None]) & (amin <= (stop - 2.0 * np.pi)[:, None])
    meets[((lo[:, :2] <= origin[:2]) & (origin[:2] <= hi[:, :2])).all(axis=1)] = True
    edges = np.flatnonzero(np.diff(meets, axis=1, prepend=False, append=False))
    box, edge = np.divmod(edges, len(amin) + 1)  # flat: a 2-D np.nonzero is much slower
    return zip(box[::2].tolist(), edge[::2].tolist(), edge[1::2].tolist())


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
    rimg = np.full((int(H), int(W)), np.nan)
    iimg = np.zeros((int(H), int(W)))
    pixel = rows * int(W) + cols
    # fmin(NaN, r) = r, so a pixel stays NaN only if no point lands in it
    np.fmin.at(rimg.reshape(-1), pixel, ranges)
    # the points holding their pixel's minimum, assigned last to first, so the
    # earliest of equal ranges is written last and wins
    wins = np.flatnonzero(ranges == rimg.reshape(-1)[pixel])[::-1]
    iimg.reshape(-1)[pixel[wins]] = intens[wins]
    rimg[np.isnan(rimg)] = 0.0
    return rimg, iimg
