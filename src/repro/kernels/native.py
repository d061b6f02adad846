"""The ``native`` backend: the C hot loops in ``_native.c``.

The module compiles the C source on first use with the system C compiler
(``$CC``, else ``cc``/``gcc``/``clang``) and loads it through
:mod:`ctypes` — no third-party build dependency, and nothing happens at
import time. The shared object is cached under
``$REPRO_KERNEL_CACHE`` (default: the user cache dir, falling back to a
per-user temp dir), keyed by a hash of the source and compile flags, so
recompiles happen only when the kernels change and concurrent builds
(parallel workers) race harmlessly to an atomic rename.

Availability is probed lazily and memoized; :func:`is_available` never
raises. When no compiler exists the dispatch layer's ``auto`` selection
falls back to the pure-numpy ``vectorized`` backend.

Bit-identity with the reference implementations is a hard contract —
see the header comment in ``_native.c`` for the compile flags that
guarantee it (``-ffp-contract=off``, no ``-ffast-math``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..color.constants import (
    D65_WHITE,
    INV_CBRT_POLY,
    INV_CBRT_RANGE,
    LAB_EPSILON,
    LAB_KAPPA,
    SRGB_GAMMA_U8,
    SRGB_TO_XYZ,
)
from ..color.reference import lab_float_reference
from ..core.distance import WEIGHT_FRAC_BITS
from ..errors import ConfigurationError
from ..metrics.boundaries import chamfer_finalize, chamfer_init
from ..types import validate_label_map, validate_rgb_image

__all__ = [
    "is_available",
    "load",
    "cpa_assign",
    "ppa_assign",
    "connected_components",
    "enforce_connectivity",
    "lab_codes",
    "lab_from_codes",
    "lab_float",
    "sigma_accumulate",
    "merge_small",
    "contingency_table",
    "chamfer_distance",
]

_SRC = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")

#: Memoized load state: None = unprobed, False = unavailable, else the
#: loaded ctypes library.
_lib = None
_load_error = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    try:
        base.mkdir(parents=True, exist_ok=True)
        return base / "repro-kernels"
    except OSError:
        return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _compiler() -> str:
    cc = os.environ.get("CC")
    candidates = [cc] if cc else []
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    raise ConfigurationError(
        "no C compiler found (checked $CC, cc, gcc, clang); the native "
        "kernel backend is unavailable — use backend 'vectorized' instead"
    )


def _build() -> Path:
    """Compile ``_native.c`` into the cache (atomic, race-safe).

    Concurrent builders (parallel workers, or two unrelated processes
    sharing the cache) each compile into their own ``mkstemp`` file and
    race to one atomic ``os.replace``; whoever loses simply discards its
    temp file. A compiler that *dies mid-build* (crash, OOM kill, the
    120 s timeout) surfaces as :class:`ConfigurationError`, which the
    ``auto``/supervised paths turn into a fall back to ``vectorized`` —
    but only after re-checking whether a concurrent builder finished the
    cache entry in the meantime, so one flaky compile cannot mask a
    healthy cache.
    """
    source = _SRC.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so_path = cache / f"repro_native_{key}.so"
    if so_path.exists():
        return so_path
    cc = _compiler()
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(_SRC), "-lm"],
                capture_output=True,
                text=True,
                timeout=120,
            )
        except (subprocess.TimeoutExpired, OSError) as exc:
            # The compiler died or hung mid-build. A concurrent builder
            # may still have produced the artifact — prefer it.
            if so_path.exists():
                return so_path
            raise ConfigurationError(
                f"native kernel compiler died mid-build ({cc}): {exc}; "
                "falling back to the vectorized backend"
            ) from None
        if proc.returncode != 0:
            if so_path.exists():  # a concurrent builder won with a good .so
                return so_path
            raise ConfigurationError(
                f"native kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent builders both win
    finally:
        try:
            if os.path.exists(tmp):
                os.unlink(tmp)
        except OSError:
            pass  # racing cleanup with another builder is harmless
    return so_path


def _declare(lib) -> None:
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    ll = ctypes.c_int64

    lib.cpa_assign_f64.restype = None
    lib.cpa_assign_f64.argtypes = [
        f64, f64, i64, ll, ctypes.c_double, ll, ll, ll, f64, i32, u8,
    ]
    lib.cpa_assign_fixed.restype = None
    lib.cpa_assign_fixed.argtypes = [
        i64, i64, f64, i64, ll, ll, ll, ll, ll, ll, ll, ll, ll, ll,
        f64, i32, u8,
    ]
    lib.ppa_assign_f64.restype = None
    lib.ppa_assign_f64.argtypes = [
        f64, i64, i64, i64, i64, ll, i32, f64, ctypes.c_double, i32,
    ]
    lib.ppa_assign_fixed.restype = None
    lib.ppa_assign_fixed.argtypes = [
        i64, i64, i64, i64, i64, ll, i32, i64, ll, ll, ll, ll, ll, ll, i32,
    ]
    lib.lab_codes_u8.restype = None
    lib.lab_codes_u8.argtypes = [
        u8, ll, i64, i64, ll, ll, ll, i64, ll, i64, i64, ll, ll, ll, ll,
        ll, ll, ll, ll, ll, i64,
    ]
    dbl = ctypes.c_double
    lib.lab_from_codes_u8.restype = None
    lib.lab_from_codes_u8.argtypes = [
        *lib.lab_codes_u8.argtypes, dbl, dbl, dbl, f64,
    ]
    # The subset-index argument is nullable (NULL means "identity"), so
    # it is a raw pointer rather than an ndpointer.
    i64p = ctypes.POINTER(ctypes.c_int64)
    lib.sigma_acc_f64.restype = None
    lib.sigma_acc_f64.argtypes = [f64, i64p, i32, ll, ll, ll, f64, i64]
    lib.sigma_acc_codes.restype = None
    lib.sigma_acc_codes.argtypes = [
        i64, i64p, i32, ll, ll, dbl, dbl, dbl, ll, f64, i64,
    ]
    lib.merge_small.restype = None
    lib.merge_small.argtypes = [
        i64, i64, i64, i64, ll, i64, ll, ll, i64, i64, i64,
    ]
    lib.ccl_i32.restype = ll
    lib.ccl_i32.argtypes = [i32, ll, ll, i32, i64]
    # Serial and threaded in one entry: the last argument is n_threads.
    lib.enforce_connectivity_i32.restype = ll
    lib.enforce_connectivity_i32.argtypes = [i32, ll, ll, ll, i32, ll]
    lib.contingency_i64.restype = None
    lib.contingency_i64.argtypes = [i64, i64, ll, ll, i64]
    lib.chamfer_i64.restype = None
    lib.chamfer_i64.argtypes = [i64, ll, ll]

    # Threaded (native-mt) entry points: the serial signatures plus a
    # trailing n_threads. Same buffers, same results — see _native.c.
    lib.cpa_assign_f64_mt.restype = None
    lib.cpa_assign_f64_mt.argtypes = [*lib.cpa_assign_f64.argtypes, ll]
    lib.cpa_assign_fixed_mt.restype = None
    lib.cpa_assign_fixed_mt.argtypes = [*lib.cpa_assign_fixed.argtypes, ll]
    lib.ppa_assign_f64_mt.restype = None
    lib.ppa_assign_f64_mt.argtypes = [*lib.ppa_assign_f64.argtypes, ll]
    lib.ppa_assign_fixed_mt.restype = None
    lib.ppa_assign_fixed_mt.argtypes = [*lib.ppa_assign_fixed.argtypes, ll]
    lib.lab_codes_u8_mt.restype = None
    lib.lab_codes_u8_mt.argtypes = [*lib.lab_codes_u8.argtypes, ll]
    lib.lab_from_codes_u8_mt.restype = None
    lib.lab_from_codes_u8_mt.argtypes = [*lib.lab_from_codes_u8.argtypes, ll]
    lib.sigma_acc_f64_mt.restype = None
    lib.sigma_acc_f64_mt.argtypes = [*lib.sigma_acc_f64.argtypes, ll]
    lib.sigma_acc_codes_mt.restype = None
    lib.sigma_acc_codes_mt.argtypes = [*lib.sigma_acc_codes.argtypes, ll]
    lib.contingency_i64_mt.restype = None
    lib.contingency_i64_mt.argtypes = [i64, i64, ll, ll, ll, i64, ll, i64]
    lib.ccl_i32_mt.restype = ll
    lib.ccl_i32_mt.argtypes = [*lib.ccl_i32.argtypes, ll]
    # Threaded only: `native` calls it at one thread.
    lib.lab_float_u8_mt.restype = None
    lib.lab_float_u8_mt.argtypes = [u8, ll, f64, f64, f64, ll]


def load():
    """Compile (if needed) and load the native library; raises on failure."""
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise _load_error
    try:
        lib = ctypes.CDLL(str(_build()))
        _declare(lib)
    except Exception as exc:  # memoize: probing must stay cheap
        _load_error = (
            exc
            if isinstance(exc, ConfigurationError)
            else ConfigurationError(f"native kernel backend unavailable: {exc}")
        )
        raise _load_error from None
    _lib = lib
    return lib


def is_available() -> bool:
    """True when the native library loads (compiling it on first call)."""
    try:
        load()
        return True
    except ConfigurationError:
        return False


# ----------------------------------------------------------------------
# Kernel entry points (KernelBackend interface)
# ----------------------------------------------------------------------

#: Per-process reusable ``touched`` masks for the CPA kernels, keyed by
#: pixel count — the same checkout/checkin protocol as the vectorized
#: backend's CPA scratch (buffers are popped while in use, so concurrent
#: engines race harmlessly to fresh allocations). Shared by the
#: ``native`` and ``native-mt`` call sites.
_TOUCHED_POOL: dict = {}


def _touched_checkout(n: int):
    buf = _TOUCHED_POOL.pop(n, None)
    if buf is None:
        return np.zeros(n, dtype=np.uint8)
    buf.fill(0)
    return buf


def _touched_checkin(n: int, buf) -> None:
    if len(_TOUCHED_POOL) >= 4:  # bound growth across geometries
        _TOUCHED_POOL.clear()
    _TOUCHED_POOL[n] = buf


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
) -> int:
    """Batched CPA window scan; see ``repro.core.assignment.assign_cpa``.

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
    touched = _touched_checkout(h * w)
    if datapath is None:
        lab_c = np.ascontiguousarray(lab, dtype=np.float64)
        lib.cpa_assign_f64(
            lab_c.reshape(-1), centers_c.reshape(-1), ks, len(ks),
            float(weight), half, h, w, dist_v, labels_v, touched,
        )
    else:
        codes_c = np.ascontiguousarray(codes, dtype=np.int64)
        c_codes = np.ascontiguousarray(datapath.encode_centers(centers))
        weight_raw = datapath.weight_raw(compactness, grid_s)
        lib.cpa_assign_fixed(
            codes_c.reshape(-1), c_codes.reshape(-1), centers_c.reshape(-1),
            ks, len(ks), weight_raw, WEIGHT_FRAC_BITS,
            datapath.spatial_frac_bits, int(datapath.quantize_distance),
            datapath.effective_distance_shift, datapath.distance_max_code,
            half, h, w, dist_v, labels_v, touched,
        )
    n_touched = int(np.count_nonzero(touched))
    _touched_checkin(h * w, touched)
    return n_touched


def ppa_assign(
    pixels,
    subset_idx,
    candidates,
    centers,
    weight,
    compactness=None,
    grid_s=None,
):
    """Fused PPA 9-candidate argmin; see ``assign_ppa`` for semantics."""
    lib = load()
    subset = np.ascontiguousarray(subset_idx, dtype=np.int64)
    out = np.empty(len(subset), dtype=np.int32)
    if len(subset) == 0:
        return out
    cands = np.ascontiguousarray(candidates, dtype=np.int32)
    dp = pixels.datapath
    if dp is None:
        lib.ppa_assign_f64(
            np.ascontiguousarray(pixels.lab_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1),
            np.ascontiguousarray(centers, dtype=np.float64).reshape(-1),
            float(weight), out,
        )
    else:
        c_codes = np.ascontiguousarray(dp.encode_centers(centers))
        lib.ppa_assign_fixed(
            np.ascontiguousarray(pixels.codes_flat).reshape(-1),
            pixels.x_flat, pixels.y_flat, pixels.tile_flat,
            subset, len(subset), cands.reshape(-1), c_codes.reshape(-1),
            dp.weight_raw(compactness, grid_s), WEIGHT_FRAC_BITS,
            dp.spatial_frac_bits, int(dp.quantize_distance),
            dp.effective_distance_shift, dp.distance_max_code, out,
        )
    return out


def lab_codes(converter, rgb):
    """Fixed-point RGB->Lab codes; see ``convert_codes_reference``.

    Ships the converter's LUTs/formats into the C pixel loop. Falls back
    to the vectorized backend for exotic PWL configurations whose
    rounding shifts are not strictly positive (the C loop assumes the
    default Q-format layout, where both are).
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
    h, w = rgb.shape[:2]
    enc = converter.encoding
    codes = np.empty((h, w, 3), dtype=np.int64)
    lib.lab_codes_u8(
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
    )
    return codes


def lab_from_codes(converter, rgb, _n_threads=None):
    """Fused RGB->Lab: ``(lab, codes)`` in one pixel pass.

    Produces both the channel codes and the decoded float64 Lab plane in
    a single frame traversal — bit-identical to ``lab_codes`` followed
    by ``LabEncoding.decode``. Same vectorized fallback as
    ``lab_codes`` for exotic PWL configurations.
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

        return vectorized.lab_from_codes(converter, rgb)
    lib = load()
    h, w = rgb.shape[:2]
    enc = converter.encoding
    codes = np.empty((h, w, 3), dtype=np.int64)
    lab = np.empty((h, w, 3), dtype=np.float64)
    args = (
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
        float(enc.l_scale),
        float(enc.ab_scale),
        float(enc.ab_offset),
        lab.reshape(-1),
    )
    if _n_threads is None:
        lib.lab_from_codes_u8(*args)
    else:
        lib.lab_from_codes_u8_mt(*args, int(_n_threads))
    return lab, codes


#: The float color contract's constants in the order ``_native.c``
#: reads them (its ``LF_*`` offsets): matrix, white, epsilon, kappa,
#: first-guess cubic, range scales, 1/3.
_LAB_FLOAT_CONSTS = np.array(
    [
        *SRGB_TO_XYZ.ravel(), *D65_WHITE, LAB_EPSILON, LAB_KAPPA,
        *INV_CBRT_POLY, *INV_CBRT_RANGE, 1.0 / 3.0,
    ],
    dtype=np.float64,
)


def lab_float(rgb, _n_threads=1):
    """Float RGB->Lab under the portable color contract.

    uint8 input runs the C kernel, bit-identical to
    ``lab_float_reference``; float input has no table to gather from
    and takes the numpy definition directly.
    """
    rgb = validate_rgb_image(rgb)
    if rgb.dtype != np.uint8:
        return lab_float_reference(rgb)
    lib = load()
    h, w = rgb.shape[:2]
    lab = np.empty((h, w, 3), dtype=np.float64)
    lib.lab_float_u8_mt(
        np.ascontiguousarray(rgb).reshape(-1), h * w, SRGB_GAMMA_U8,
        _LAB_FLOAT_CONSTS, lab.reshape(-1), int(_n_threads),
    )
    return lab


def sigma_accumulate(
    labels,
    n_clusters,
    width,
    lab_flat=None,
    codes_flat=None,
    encoding=None,
    idx=None,
    _n_threads=None,
):
    """One-pass sigma-register fill; see ``sigma_accumulate_reference``.

    Returns partial ``(sums, counts)`` accumulated from zero — the
    caller (``SigmaAccumulator.accumulate``) folds them into its
    registers. x/y come from the flat pixel index, so no (M, 5) values
    matrix is ever materialized.
    """
    lib = load()
    labels_c = np.ascontiguousarray(labels, dtype=np.int32)
    m = len(labels_c)
    sums = np.zeros((n_clusters, 5), dtype=np.float64)
    counts = np.zeros(n_clusters, dtype=np.int64)
    if m == 0 or n_clusters == 0:
        return sums, counts
    idx_ptr = None
    if idx is not None:
        idx_c = np.ascontiguousarray(idx, dtype=np.int64)
        idx_ptr = idx_c.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))
    if codes_flat is not None:
        codes_c = np.ascontiguousarray(codes_flat, dtype=np.int64)
        args = (
            codes_c.reshape(-1), idx_ptr, labels_c, m, width,
            float(encoding.l_scale), float(encoding.ab_scale),
            float(encoding.ab_offset), n_clusters,
            sums.reshape(-1), counts,
        )
        if _n_threads is None:
            lib.sigma_acc_codes(*args)
        else:
            lib.sigma_acc_codes_mt(*args, int(_n_threads))
    else:
        lab_c = np.ascontiguousarray(lab_flat, dtype=np.float64)
        args = (
            lab_c.reshape(-1), idx_ptr, labels_c, m, width,
            n_clusters, sums.reshape(-1), counts,
        )
        if _n_threads is None:
            lib.sigma_acc_f64(*args)
        else:
            lib.sigma_acc_f64_mt(*args, int(_n_threads))
    return sums, counts


def connected_components(labels, _n_threads=None):
    """Two-pass union-find CCL; see ``connected_components_reference``.

    Component ids come out in canonical first-appearance order (the C
    kernel unions by minimal root and renumbers roots ascending, which
    is exactly the reference's ``comp_min`` ordering). Maps too large
    for the int32 run-id scratch fall back to the vectorized backend.
    """
    labels = validate_label_map(labels)
    h, w = labels.shape
    if h * w >= 2**31:
        from . import vectorized

        return vectorized.connected_components(labels)
    lib = load()
    lab_c = np.ascontiguousarray(labels, dtype=np.int32)
    comps = np.empty((h, w), dtype=np.int32)
    parent = np.empty(h * w, dtype=np.int64)
    if _n_threads is None:
        n = lib.ccl_i32(lab_c.reshape(-1), h, w, comps.reshape(-1), parent)
    else:
        n = lib.ccl_i32_mt(
            lab_c.reshape(-1), h, w, comps.reshape(-1), parent,
            int(_n_threads),
        )
    return comps, int(n)


def enforce_connectivity(labels, min_size, _n_threads=1):
    """Connectivity enforcement in one C call; see ``compose_connectivity``.

    CCL, component sizes and labels, the small components' adjacency,
    their size order, the merge walk and the relabel all run inside
    ``enforce_connectivity_i32``. Maps too large for the int32 scratch
    fall back to the vectorized backend, like ``connected_components``.
    """
    labels = validate_label_map(labels)
    h, w = labels.shape
    if h * w >= 2**31:
        from . import vectorized

        return vectorized.enforce_connectivity(labels, min_size)
    lib = load()
    out = np.empty((h, w), dtype=np.int32)
    n = lib.enforce_connectivity_i32(
        np.ascontiguousarray(labels, dtype=np.int32).reshape(-1), h, w,
        int(min_size), out.reshape(-1), int(_n_threads),
    )
    if n < 0:
        raise MemoryError("enforce_connectivity: scratch allocation failed")
    return out


def merge_small(sizes, starts, ends, dst, border_len, min_size, order):
    """Greedy small-component merge walk; see ``merge_small_reference``."""
    lib = load()
    n_comps = len(sizes)
    parent = np.arange(n_comps, dtype=np.int64)
    merged_size = np.ascontiguousarray(sizes, dtype=np.int64).copy()
    final_root = np.empty(n_comps, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    lib.merge_small(
        np.ascontiguousarray(starts, dtype=np.int64),
        np.ascontiguousarray(ends, dtype=np.int64),
        np.ascontiguousarray(dst, dtype=np.int64),
        np.ascontiguousarray(border_len, dtype=np.int64),
        int(min_size),
        order, len(order),
        n_comps, parent, merged_size, final_root,
    )
    return final_root


def contingency_table(a_flat, b_flat, n_a, n_b):
    """Joint label histogram; see ``contingency_table_reference``."""
    lib = load()
    a_flat = np.ascontiguousarray(a_flat, dtype=np.int64)
    b_flat = np.ascontiguousarray(b_flat, dtype=np.int64)
    table = np.zeros(n_a * n_b, dtype=np.int64)
    lib.contingency_i64(a_flat, b_flat, len(a_flat), n_b, table)
    return table.reshape(n_a, n_b)


def chamfer_distance(mask):
    """3-4 chamfer transform; see ``chamfer_distance_reference``.

    The C sweeps are the sequential raster form of the reference's
    prefix-min rows — exactly equal on the integer grid — and share the
    init/finalize helpers so the float conversion is identical too.
    """
    lib = load()
    dist = chamfer_init(mask)
    h, w = dist.shape
    lib.chamfer_i64(dist.reshape(-1), h, w)
    return chamfer_finalize(dist)
