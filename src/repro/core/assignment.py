"""Assignment passes: CPA window scan and PPA 9-candidate evaluation.

Two iteration orders compute the same k-means-style assignment:

* :func:`assign_cpa` — the original SLIC order (Figure 1a): for each
  center, scan a 2S x 2S window and keep per-pixel running minima in two
  image-sized buffers ("Two memory buffers (as large as the image) are
  required to store the minimum distance and the corresponding SP").
* :func:`assign_ppa` — the accelerator order (Figure 1b): for each pixel,
  evaluate the 9 statically-assigned candidate centers and take the 9:1
  minimum. No distance buffer is needed, and any pixel subset can be
  processed independently — which is what makes S-SLIC subsampling cheap.

Both support the float64 reference datapath and the quantized
:class:`~repro.core.distance.FixedDatapath`.
"""

from __future__ import annotations

import functools

import numpy as np

from .distance import FixedDatapath, pairwise_d2_float
from .neighbors import tile_map

__all__ = ["PixelArrays", "assign_ppa", "assign_cpa"]

#: Chunk size (pixels) for the PPA vectorized pass; bounds peak memory at
#: roughly chunk * 9 * 5 float64s (~95 MB at the default).
_PPA_CHUNK = 1 << 18


@functools.lru_cache(maxsize=4)
def _pixel_coords(h: int, w: int):
    """Read-only flat int64 ``(x, y)`` of every pixel, memoized per shape."""
    x = np.tile(np.arange(w, dtype=np.int64), h)
    y = np.repeat(np.arange(h, dtype=np.int64), w)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


@functools.lru_cache(maxsize=4)
def _tile_flat(h: int, w: int, grid_h: int, grid_w: int):
    """Read-only flat int64 ``tile_map``, memoized per geometry."""
    flat = tile_map((h, w), grid_h, grid_w).ravel().astype(np.int64)
    flat.setflags(write=False)
    return flat


class PixelArrays:
    """Flat per-pixel arrays prepared once per run.

    Holds the Lab image (float and, when a fixed datapath is configured,
    code domain), integer pixel coordinates, and the tile index of every
    pixel. Assignment functions index these with subset index arrays.

    ``grid=(grid_h, grid_w)`` says ``tile_of_pixel`` is the static
    ``tile_map`` of that grid: ``tile_flat`` is then the shared,
    read-only int64 copy memoized per geometry rather than a fresh copy
    per frame.
    """

    def __init__(
        self,
        lab: np.ndarray,
        tile_of_pixel: np.ndarray,
        datapath: FixedDatapath = None,
        codes: np.ndarray | None = None,
        grid: tuple | None = None,
    ):
        h, w = lab.shape[:2]
        self.shape = (h, w)
        # A view when ``lab`` is already contiguous float64 (the engine's
        # case); kernels only read it.
        self.lab_flat = np.ascontiguousarray(lab, dtype=np.float64).reshape(
            -1, 3
        )
        self.x_flat, self.y_flat = _pixel_coords(h, w)
        if grid is not None:
            self.tile_flat = _tile_flat(h, w, *grid)
        else:
            self.tile_flat = np.asarray(tile_of_pixel).ravel().astype(np.int64)
        self.datapath = datapath
        if datapath is not None:
            if codes is None:
                codes = datapath.encode_image(lab)
            self.codes_flat = np.asarray(codes, dtype=np.int64).reshape(-1, 3)
        else:
            self.codes_flat = None

    @property
    def n_pixels(self) -> int:
        return len(self.x_flat)

    def values5(self, idx: np.ndarray) -> np.ndarray:
        """(M, 5) rows ``[L, a, b, x, y]`` for sigma accumulation.

        In fixed mode the color fields are the *decoded* code values, so
        center means stay in real Lab units while reflecting the code
        quantization the hardware accumulates.
        """
        out = np.empty((len(idx), 5), dtype=np.float64)
        if self.datapath is not None:
            out[:, 0:3] = self.datapath.encoding.decode(self.codes_flat[idx])
        else:
            out[:, 0:3] = self.lab_flat[idx]
        out[:, 3] = self.x_flat[idx]
        out[:, 4] = self.y_flat[idx]
        return out


def assign_ppa(
    pixels: PixelArrays,
    subset_idx: np.ndarray,
    candidates: np.ndarray,
    centers: np.ndarray,
    weight: float,
    compactness: float | None = None,
    grid_s: float | None = None,
) -> np.ndarray:
    """PPA assignment for the pixels in ``subset_idx``.

    Parameters
    ----------
    pixels:
        Prepared :class:`PixelArrays`.
    subset_idx:
        Flat indices of the pixels to (re)assign this sub-iteration.
    candidates:
        (T, 9) candidate cluster indices per tile.
    centers:
        (K, 5) float centers.
    weight:
        Float spatial weight ``m^2/S^2`` (reference datapath).
    compactness, grid_s:
        Needed to derive the fixed-point weight when a
        :class:`FixedDatapath` is configured.

    Returns the chosen cluster index for each subset pixel, in subset
    order. Ties resolve to the lowest candidate slot — the deterministic
    behaviour of the hardware 9:1 minimum tree.
    """
    dp = pixels.datapath
    if dp is not None:
        c_codes_all = dp.encode_centers(centers)
        weight_raw = dp.weight_raw(compactness, grid_s)
    out = np.empty(len(subset_idx), dtype=np.int32)
    for start in range(0, len(subset_idx), _PPA_CHUNK):
        idx = subset_idx[start : start + _PPA_CHUNK]
        cand = candidates[pixels.tile_flat[idx]]  # (M, 9)
        if dp is None:
            px_lab = pixels.lab_flat[idx][:, None, :]  # (M, 1, 3)
            px_xy = np.stack([pixels.x_flat[idx], pixels.y_flat[idx]], axis=1)[
                :, None, :
            ].astype(np.float64)
            c_lab = centers[cand, 0:3]  # (M, 9, 3)
            c_xy = centers[cand, 3:5]
            d2 = pairwise_d2_float(px_lab, px_xy, c_lab, c_xy, weight)
        else:
            px_codes = pixels.codes_flat[idx][:, None, :]
            px_xy = np.stack([pixels.x_flat[idx], pixels.y_flat[idx]], axis=1)[
                :, None, :
            ]
            c_codes = c_codes_all[cand, 0:3]
            c_xy_raw = c_codes_all[cand, 3:5]
            d2 = dp.pairwise_d2(px_codes, px_xy, c_codes, c_xy_raw, weight_raw)
        best = np.argmin(d2, axis=1)  # first minimum wins, like the hw tree
        out[start : start + len(idx)] = cand[np.arange(len(idx)), best]
    return out


def assign_cpa(
    lab: np.ndarray,
    centers: np.ndarray,
    weight: float,
    grid_s: float,
    dist_buf: np.ndarray,
    labels_buf: np.ndarray,
    cluster_indices: np.ndarray | None = None,
    datapath: FixedDatapath = None,
    compactness: float | None = None,
    codes: np.ndarray | None = None,
) -> int:
    """CPA assignment: scan a 2S x 2S window per center, updating the
    running-minimum buffers in place.

    The window is the paper's 2S x 2S region: ``ceil(S)`` pixels each
    side of the center's integer position.

    ``dist_buf`` (float64 or int64 (H, W), pre-filled with +inf / a large
    sentinel) and ``labels_buf`` (int32 (H, W)) are the paper's two
    image-sized memory buffers. ``cluster_indices`` restricts the scan to a
    subset of centers — the CPA flavour of S-SLIC; ``None`` scans all.

    In fixed mode pass ``codes`` (the encoded image) and ``compactness``.

    Returns the number of distinct pixels scanned at least once (windows
    overlap, so this is less than the summed window areas).
    """
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    if cluster_indices is None:
        cluster_indices = np.arange(len(centers))
    if datapath is not None:
        c_all = datapath.encode_centers(centers)
        weight_raw = datapath.weight_raw(compactness, grid_s)
        sf = datapath.spatial_frac_bits
    touched = np.zeros((h, w), dtype=bool)
    for k in cluster_indices:
        cx, cy = centers[k, 3], centers[k, 4]
        x0 = max(0, int(np.floor(cx)) - half)
        x1 = min(w, int(np.floor(cx)) + half + 1)
        y0 = max(0, int(np.floor(cy)) - half)
        y1 = min(h, int(np.floor(cy)) + half + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        if datapath is None:
            window = lab[y0:y1, x0:x1, :]
            dc2 = ((window - centers[k, 0:3]) ** 2).sum(axis=-1)
            ds2 = (xx - cx) ** 2 + (yy - cy) ** 2
            d2 = dc2 + weight * ds2
        else:
            window = codes[y0:y1, x0:x1, :]
            dlab = window - c_all[k, 0:3]
            dc2 = (dlab * dlab).sum(axis=-1)
            dxy_x = (xx.astype(np.int64) << sf) - c_all[k, 3]
            dxy_y = (yy.astype(np.int64) << sf) - c_all[k, 4]
            ds2 = (dxy_x * dxy_x + dxy_y * dxy_y) >> (2 * sf)
            d2 = dc2 + ((weight_raw * ds2) >> 12)
            if datapath.quantize_distance:
                d2 = np.minimum(
                    d2 >> datapath.effective_distance_shift, datapath.distance_max_code
                )
        sub_d = dist_buf[y0:y1, x0:x1]
        sub_l = labels_buf[y0:y1, x0:x1]
        better = d2 < sub_d
        sub_d[better] = d2[better]
        sub_l[better] = k
        touched[y0:y1, x0:x1] = True
    return int(np.count_nonzero(touched))
