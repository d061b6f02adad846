"""The ``native-mt`` backend: the C hot loops fanned out over threads.

Shares the compiled ``_native.c`` library with the ``native`` backend —
same source, same compile cache — but dispatches to the ``*_mt`` entry
points, which split each kernel over a small persistent pthread pool
inside the shared object. ctypes releases the GIL for the duration of
the call, so the threads genuinely run in parallel in one address
space: no pickling, no shared-memory slabs, no per-frame process
overhead.

Bit-identity at any thread count comes from *ownership partitioning*
(see the ``_native.c`` header): each thread owns a contiguous slice of
the output — row bands for CPA, index ranges for PPA, ``lab_float``
and ``lab_codes`` / ``lab_from_codes``, cluster ranges for ``sigma_accumulate``,
a private histogram for ``contingency_table`` — and visits its slice in
exactly the serial order. Every output element is written by exactly
one thread, so no boundary ties can arise; the cross-tile combines
(the contingency stitch, the connected-components band seams and
renumber) run sequentially. ``connected_components`` tiles row bands
with per-band run decomposition and union-by-minimal-root, so component
roots — and the canonical first-appearance renumbering — are
independent of thread count (see the CCL section in ``_native.c``).
``enforce_connectivity`` threads that CCL and its final relabel and
runs the steps between them serially. The inherently sequential kernels (``merge_small``'s greedy walk, the
raster-ordered chamfer sweeps) delegate to their serial
implementations.

Thread-count resolution, per call site, first match wins:

1. an explicit ``n_threads=`` keyword (direct callers),
2. the ambient :func:`thread_context` (how ``SlicParams.n_threads``
   reaches kernels dispatched by backend *name* deep in the engine —
   a :class:`contextvars.ContextVar`, so concurrent engines in one
   process each see their own setting),
3. the ``REPRO_KERNEL_THREADS`` environment variable,
4. ``os.cpu_count()``.

The result is clamped to [1, MAX_THREADS]; the C pool degrades
gracefully if thread spawn fails (kernels see the width that exists).
"""

from __future__ import annotations

import contextlib
import contextvars
import os

import numpy as np

from ..core.distance import WEIGHT_FRAC_BITS
from . import native
from .native import chamfer_distance, is_available, load, merge_small  # noqa: F401

__all__ = [
    "is_available",
    "load",
    "resolve_threads",
    "thread_context",
    "cpa_assign",
    "ppa_assign",
    "connected_components",
    "lab_codes",
    "lab_from_codes",
    "lab_float",
    "sigma_accumulate",
    "merge_small",
    "enforce_connectivity",
    "contingency_table",
    "chamfer_distance",
]

#: Hard cap, mirroring MT_MAX_THREADS in ``_native.c``.
MAX_THREADS = 64

ENV_THREADS = "REPRO_KERNEL_THREADS"

#: Ambient per-context thread count (None = fall through to env/cpu).
_ambient: contextvars.ContextVar = contextvars.ContextVar(
    "repro_kernel_threads", default=None
)


def resolve_threads(n_threads=None) -> int:
    """Resolve the effective thread count for one kernel call."""
    if n_threads is None:
        n_threads = _ambient.get()
    if n_threads is None:
        env = os.environ.get(ENV_THREADS)
        if env:
            try:
                n_threads = int(env)
            except ValueError:
                n_threads = None
    if n_threads is None:
        n_threads = os.cpu_count() or 1
    return max(1, min(int(n_threads), MAX_THREADS))


@contextlib.contextmanager
def thread_context(n_threads):
    """Pin the ambient thread count for the calling context.

    Context-local, not process-global: two engines running concurrently
    in different threads (or asyncio tasks) each keep their own value.
    ``None`` simply defers to the env/cpu fallbacks.
    """
    token = _ambient.set(None if n_threads is None else int(n_threads))
    try:
        yield
    finally:
        _ambient.reset(token)


# ----------------------------------------------------------------------
# Kernel entry points (KernelBackend interface)
# ----------------------------------------------------------------------

def cpa_assign(
    lab,
    centers,
    weight,
    grid_s,
    dist_buf,
    labels_buf,
    cluster_indices=None,
    datapath=None,
    compactness=None,
    codes=None,
    n_threads=None,
) -> int:
    """Row-banded CPA window scan; see ``assign_cpa`` for semantics.

    Returns the number of distinct pixels scanned. Falls back to the
    vectorized backend for non-float64 distance buffers (the engine
    always passes float64; only direct callers pass int64 buffers).
    """
    if dist_buf.dtype != np.float64 or not (
        dist_buf.flags.c_contiguous and labels_buf.flags.c_contiguous
    ):
        from . import vectorized

        return vectorized.cpa_assign(
            lab, centers, weight, grid_s, dist_buf, labels_buf,
            cluster_indices=cluster_indices, datapath=datapath,
            compactness=compactness, codes=codes,
        )
    lib = load()
    nt = resolve_threads(n_threads)
    h, w = lab.shape[:2]
    half = int(np.ceil(grid_s))
    if cluster_indices is None:
        cluster_indices = np.arange(len(centers))
    ks = np.ascontiguousarray(cluster_indices, dtype=np.int64)
    if len(ks) == 0:
        return 0
    centers_c = np.ascontiguousarray(centers, dtype=np.float64)
    labels_v = labels_buf.reshape(-1)
    dist_v = dist_buf.reshape(-1)
    touched = native._touched_checkout(h * w)
    if datapath is None:
        lab_c = np.ascontiguousarray(lab, dtype=np.float64)
        lib.cpa_assign_f64_mt(
            lab_c.reshape(-1), centers_c.reshape(-1), ks, len(ks),
            float(weight), half, h, w, dist_v, labels_v, touched, nt,
        )
    else:
        codes_c = np.ascontiguousarray(codes, dtype=np.int64)
        c_codes = np.ascontiguousarray(datapath.encode_centers(centers))
        weight_raw = datapath.weight_raw(compactness, grid_s)
        lib.cpa_assign_fixed_mt(
            codes_c.reshape(-1), c_codes.reshape(-1), centers_c.reshape(-1),
            ks, len(ks), weight_raw, WEIGHT_FRAC_BITS,
            datapath.spatial_frac_bits, int(datapath.quantize_distance),
            datapath.effective_distance_shift, datapath.distance_max_code,
            half, h, w, dist_v, labels_v, touched, nt,
        )
    n_touched = int(np.count_nonzero(touched))
    native._touched_checkin(h * w, touched)
    return n_touched


def ppa_assign(
    pixels,
    subset_idx,
    candidates,
    centers,
    weight,
    compactness=None,
    grid_s=None,
    n_threads=None,
):
    """Range-partitioned PPA 9-candidate argmin; see ``assign_ppa``."""
    lib = load()
    nt = resolve_threads(n_threads)
    subset = np.ascontiguousarray(subset_idx, dtype=np.int64)
    out = np.empty(len(subset), dtype=np.int32)
    if len(subset) == 0:
        return out
    cands = np.ascontiguousarray(candidates, dtype=np.int32)
    dp = pixels.datapath
    if dp is None:
        lib.ppa_assign_f64_mt(
            np.ascontiguousarray(pixels.lab_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1),
            np.ascontiguousarray(centers, dtype=np.float64).reshape(-1),
            float(weight), out, nt,
        )
    else:
        c_codes = np.ascontiguousarray(dp.encode_centers(centers))
        lib.ppa_assign_fixed_mt(
            np.ascontiguousarray(pixels.codes_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1), c_codes.reshape(-1),
            dp.weight_raw(compactness, grid_s), WEIGHT_FRAC_BITS,
            dp.spatial_frac_bits, int(dp.quantize_distance),
            dp.effective_distance_shift, dp.distance_max_code, out, nt,
        )
    return out


def lab_codes(converter, rgb, n_threads=None):
    """Fixed-point RGB->Lab codes over pixel-range chunks.

    Ships the converter's LUTs/formats into the threaded C pixel loop.
    Falls back to the vectorized backend for exotic PWL configurations
    whose rounding shifts are not strictly positive (the C loop assumes
    the default Q-format layout, where both are).
    """
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    pwl = converter.pwl
    mat_shift = (
        converter.gamma_frac_bits + converter._matrix_fmt.frac_bits
    ) - pwl.in_fmt.frac_bits
    out_shift = (
        pwl.coeff_fmt.frac_bits + pwl.in_fmt.frac_bits
    ) - pwl.out_fmt.frac_bits
    if mat_shift <= 0 or out_shift <= 0:
        from . import vectorized

        return vectorized.lab_codes(converter, rgb)
    lib = load()
    nt = resolve_threads(n_threads)
    h, w = rgb.shape[:2]
    enc = converter.encoding
    codes = np.empty((h, w, 3), dtype=np.int64)
    lib.lab_codes_u8_mt(
        rgb.reshape(-1),
        h * w,
        np.ascontiguousarray(converter.gamma_lut, dtype=np.int64),
        np.ascontiguousarray(converter.matrix_raw, dtype=np.int64).reshape(-1),
        mat_shift,
        pwl.in_fmt.raw_min, pwl.in_fmt.raw_max,
        np.ascontiguousarray(pwl.breaks_raw, dtype=np.int64),
        pwl.n_segments,
        np.ascontiguousarray(pwl.slopes_raw, dtype=np.int64),
        np.ascontiguousarray(pwl.intercepts_raw, dtype=np.int64),
        pwl.in_fmt.frac_bits,
        out_shift,
        pwl.out_fmt.raw_min, pwl.out_fmt.raw_max,
        pwl.out_fmt.frac_bits,
        int(round(enc.l_scale * (1 << 14))),
        int(round(enc.ab_scale * (1 << 14))),
        enc.ab_offset,
        enc.code_max,
        codes.reshape(-1),
        nt,
    )
    return codes


def lab_from_codes(converter, rgb, n_threads=None):
    """Fused RGB->Lab ``(lab, codes)`` over pixel-range chunks.

    Delegates to the shared native wrapper with the resolved thread
    count, which dispatches the ``lab_from_codes_u8_mt`` entry (or the
    vectorized fallback for exotic PWL configurations).
    """
    return native.lab_from_codes(
        converter, rgb, _n_threads=resolve_threads(n_threads)
    )


def lab_float(rgb, n_threads=None):
    """Float RGB->Lab over pixel-range chunks; see ``native.lab_float``."""
    return native.lab_float(rgb, _n_threads=resolve_threads(n_threads))


def sigma_accumulate(
    labels,
    n_clusters,
    width,
    lab_flat=None,
    codes_flat=None,
    encoding=None,
    idx=None,
    n_threads=None,
):
    """Cluster-ownership-partitioned sigma accumulation.

    Each thread owns a contiguous cluster range and scans every entry,
    accumulating only the labels it owns — the full serial addition
    order per register, so sums are bit-identical at any thread count
    (see the sigma section in ``_native.c``).
    """
    return native.sigma_accumulate(
        labels, n_clusters, width,
        lab_flat=lab_flat, codes_flat=codes_flat, encoding=encoding,
        idx=idx, _n_threads=resolve_threads(n_threads),
    )


def connected_components(labels, n_threads=None):
    """Row-banded two-pass union-find CCL; see ``connected_components``.

    Each thread decomposes its own row band into runs (offset by a
    serial prefix sum) and unions within the band's disjoint parent
    range; the band seams and the ascending renumber run serially.
    Union-by-minimal-root makes the component roots independent of the
    union order, so labels are bit-identical at any thread count.
    """
    return native.connected_components(
        labels, _n_threads=resolve_threads(n_threads)
    )


def enforce_connectivity(labels, min_size, n_threads=None):
    """Connectivity enforcement in one C call, CCL and relabel threaded.

    The CCL runs in row bands as in :func:`connected_components` and the
    final relabel in pixel ranges, both by ownership; the size count,
    adjacency scan, counting sort and merge walk between them are
    serial. Integer arithmetic throughout, so labels are bit-identical
    at any thread count.
    """
    return native.enforce_connectivity(
        labels, min_size, _n_threads=resolve_threads(n_threads)
    )


def contingency_table(a_flat, b_flat, n_a, n_b, n_threads=None):
    """Joint label histogram via per-thread private tables.

    Each thread histograms a contiguous index range into its own table;
    the tables fold into the result sequentially in ascending tile id —
    int64 addition, so the stitch is exact at any thread count.
    """
    lib = load()
    nt = resolve_threads(n_threads)
    a_flat = np.ascontiguousarray(a_flat, dtype=np.int64)
    b_flat = np.ascontiguousarray(b_flat, dtype=np.int64)
    n_cells = n_a * n_b
    scratch = np.zeros(nt * n_cells, dtype=np.int64)
    table = np.zeros(n_cells, dtype=np.int64)
    lib.contingency_i64_mt(
        a_flat, b_flat, len(a_flat), n_b, nt, scratch, n_cells, table
    )
    return table.reshape(n_a, n_b)
