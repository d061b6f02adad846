"""Reference (float64) sRGB <-> CIELAB conversion, Equations 1-4 of the paper.

This is the "golden" software path: SLIC and S-SLIC run on top of it in
float mode, and the LUT-based hardware conversion in
:mod:`repro.color.hw_convert` is validated against it.

The forward chain is:

1. inverse sRGB gamma (Equation 1)::

       x' = x / 12.92                      if x <= 0.04045
       x' = ((x + 0.055) / 1.055) ** 2.4   otherwise

   (The paper's text prints the offset as 0.05; 0.055 is the sRGB standard
   and what every SLIC implementation, including the authors' baseline,
   uses. We follow the standard.)

2. linear RGB -> XYZ via the 3x3 matrix M (Equation 2).

3. XYZ -> LAB via the cube-root / linear-branch function f (Equations 3-4).

Steps 2 and 3 follow a portable *float color contract*: a fixed-order
elementwise sum for the matrix product (no BLAS) and a self-contained
cube root (:func:`portable_cbrt`, no libm, no SIMD dispatch). uint8
input also takes step 1 from the committed literal table
``SRGB_GAMMA_U8``, so its Lab is a bitwise function of the image on
every host; float input keeps numpy's ``pow`` for step 1. The C kernel
``lab_float`` of the native backends performs the same IEEE operations
in the same order (see ``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from ..types import as_float_rgb, validate_rgb_image
from .constants import (
    D65_WHITE,
    GAMMA_THRESHOLD,
    INV_CBRT_POLY,
    INV_CBRT_RANGE,
    LAB_EPSILON,
    LAB_KAPPA,
    SRGB_GAMMA_U8,
    SRGB_TO_XYZ,
    XYZ_TO_SRGB,
)

__all__ = [
    "portable_cbrt",
    "lab_float_reference",
    "srgb_gamma_expand",
    "srgb_gamma_compress",
    "linear_rgb_to_xyz",
    "xyz_to_linear_rgb",
    "xyz_to_lab",
    "lab_to_xyz",
    "rgb_to_lab",
    "lab_to_rgb",
]


def srgb_gamma_expand(rgb: np.ndarray) -> np.ndarray:
    """Equation 1: sRGB [0,1] -> linear-light RGB [0,1].

    The power branch is evaluated full-size and the (rare) linear branch
    patched in by mask — elementwise identical to the two-branch select,
    without materializing both branches for every pixel.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim == 0:
        return np.where(
            rgb <= GAMMA_THRESHOLD, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4
        )
    linear = ((rgb + 0.055) / 1.055) ** 2.4
    low = rgb <= GAMMA_THRESHOLD
    if low.any():
        linear[low] = rgb[low] / 12.92
    return linear


def srgb_gamma_compress(linear: np.ndarray) -> np.ndarray:
    """Inverse of Equation 1: linear-light RGB -> sRGB [0,1]."""
    linear = np.clip(np.asarray(linear, dtype=np.float64), 0.0, 1.0)
    if linear.ndim == 0:
        return np.where(
            linear <= GAMMA_THRESHOLD / 12.92,
            linear * 12.92,
            1.055 * linear ** (1.0 / 2.4) - 0.055,
        )
    out = 1.055 * linear ** (1.0 / 2.4) - 0.055
    low = linear <= GAMMA_THRESHOLD / 12.92
    if low.any():
        out[low] = linear[low] * 12.92
    return out


def linear_rgb_to_xyz(linear: np.ndarray) -> np.ndarray:
    """Equation 2: linear RGB -> XYZ. Works on any (..., 3) array.

    Each output channel is ``(r * M[k, 0] + g * M[k, 1]) + b * M[k, 2]``
    evaluated elementwise in that order — the contract order, which a
    BLAS matrix product does not guarantee.
    """
    linear = np.asarray(linear, dtype=np.float64)
    r, g, b = linear[..., 0], linear[..., 1], linear[..., 2]
    xyz = np.empty(linear.shape, dtype=np.float64)
    for k in range(3):
        m0, m1, m2 = SRGB_TO_XYZ[k]
        xyz[..., k] = (r * m0 + g * m1) + b * m2
    return xyz


def xyz_to_linear_rgb(xyz: np.ndarray) -> np.ndarray:
    """Inverse of Equation 2."""
    xyz = np.asarray(xyz, dtype=np.float64)
    return xyz @ XYZ_TO_SRGB.T


_MANTISSA_BITS = np.uint64((1 << 52) - 1)
_ONE_BITS = np.uint64(1023 << 52)
_SHIFT = np.uint64(52)
_THIRD = 1.0 / 3.0
_RANGE = np.array(INV_CBRT_RANGE, dtype=np.float64)


def portable_cbrt(t: np.ndarray) -> np.ndarray:
    """The contract cube root of positive normal float64 values.

    Host-independent by construction — plain IEEE multiplies and adds in
    a fixed order, no libm and no division:

    1. split ``t = m * 2**e`` with ``m`` in [1, 2) by bit operations, and
       ``e = 3q + r`` with ``r`` in {0, 1, 2};
    2. guess ``t ** (-1/3)`` as ``p(m) * (INV_CBRT_RANGE[r] * 2**-q)``,
       ``p`` the cubic ``INV_CBRT_POLY`` in Horner order;
    3. two Newton steps for the inverse cube root,
       ``y += (y * (1 - t * y**3)) / 3`` (the division a multiply by
       ``1/3``);
    4. ``c = t * y**2``, then one Newton step on ``c**3 = t`` using
       ``y**2`` for ``1 / c**2``.

    The result is within 1 ULP of the exact cube root. The C kernel
    ``lab_float`` in ``_native.c`` evaluates the same expressions. The
    in-place updates below keep each expression's operand order
    (multiplication commutes exactly in IEEE arithmetic).
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    bits = t.view(np.uint64)
    biased = bits >> _SHIFT
    q3 = biased // np.uint64(3)
    m = ((bits & _MANTISSA_BITS) | _ONE_BITS).view(np.float64)
    c0, c1, c2, c3 = INV_CBRT_POLY
    y = m * c3
    y += c2
    y *= m
    y += c1
    y *= m
    y += c0
    # 2**-q with q = e // 3 = biased // 3 - 341, as an exponent field.
    scale = ((np.uint64(1364) - q3) << _SHIFT).view(np.float64)
    y *= _RANGE[biased - np.uint64(3) * q3] * scale
    e = np.empty_like(y)
    for _ in range(2):
        np.multiply(y, y, out=e)
        e *= y
        e *= t
        np.subtract(1.0, e, out=e)
        e *= y
        e *= _THIRD
        y += e
    yy = np.multiply(y, y, out=y)
    c = t * yy
    np.multiply(c, c, out=e)
    e *= c
    np.subtract(t, e, out=e)
    e *= _THIRD
    e *= yy
    c += e
    return c


def _f(w_over_wr: np.ndarray) -> np.ndarray:
    """Equation 4's f(): cube root with a linear branch near zero.

    The cube root is :func:`portable_cbrt`, evaluated on
    ``max(t, LAB_EPSILON)`` so its input is always a positive normal
    number; the linear branch overwrites the clamped lanes.
    """
    t = np.asarray(w_over_wr, dtype=np.float64)
    out = portable_cbrt(np.maximum(t, LAB_EPSILON))
    small = ~(t > LAB_EPSILON)
    if small.any():
        ts = t[small]
        out[small] = (LAB_KAPPA * ts + 16.0) / 116.0
    return out


def _f_inv(f: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_f`."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 0:
        cubed = f ** 3
        return np.where(
            cubed > LAB_EPSILON, cubed, (116.0 * f - 16.0) / LAB_KAPPA
        )
    out = f ** 3
    small = ~(out > LAB_EPSILON)
    if small.any():
        out[small] = (116.0 * f[small] - 16.0) / LAB_KAPPA
    return out


def xyz_to_lab(xyz: np.ndarray, white: np.ndarray = D65_WHITE) -> np.ndarray:
    """Equations 3-4: XYZ -> CIELAB relative to ``white``."""
    xyz = np.asarray(xyz, dtype=np.float64)
    fxyz = _f(xyz / white)
    fx, fy, fz = fxyz[..., 0], fxyz[..., 1], fxyz[..., 2]
    lab = np.empty(fxyz.shape, dtype=np.float64)
    lab[..., 0] = 116.0 * fy - 16.0
    lab[..., 1] = 500.0 * (fx - fy)
    lab[..., 2] = 200.0 * (fy - fz)
    return lab


def lab_to_xyz(lab: np.ndarray, white: np.ndarray = D65_WHITE) -> np.ndarray:
    """Inverse of :func:`xyz_to_lab`."""
    lab = np.asarray(lab, dtype=np.float64)
    fy = (lab[..., 0] + 16.0) / 116.0
    fxyz = np.empty_like(lab)
    fxyz[..., 0] = fy + lab[..., 1] / 500.0
    fxyz[..., 1] = fy
    fxyz[..., 2] = fy - lab[..., 2] / 200.0
    return _f_inv(fxyz) * white


#: Pixels per pass of :func:`lab_float_reference`: small enough that the
#: temporaries of every stage stay in cache.
_LAB_CHUNK = 1 << 12


def lab_float_reference(rgb: np.ndarray) -> np.ndarray:
    """The float color contract in numpy: sRGB image -> CIELAB.

    uint8 input gathers Equation 1 from ``SRGB_GAMMA_U8``; float input
    evaluates :func:`srgb_gamma_expand`. Both continue through the
    fixed-order :func:`linear_rgb_to_xyz` and :func:`xyz_to_lab`. This
    is the ``lab_float`` kernel of the ``reference`` and ``vectorized``
    backends, and the definition the native kernel must match bit for
    bit. Every step is elementwise, so running it over pixel chunks
    changes no value.
    """
    rgb_arr = validate_rgb_image(rgb)
    if rgb_arr.dtype != np.uint8:
        rgb_arr = as_float_rgb(rgb_arr)
    flat = rgb_arr.reshape(-1, 3)
    lab = np.empty(flat.shape, dtype=np.float64)
    for start in range(0, len(flat), _LAB_CHUNK):
        px = flat[start : start + _LAB_CHUNK]
        if px.dtype == np.uint8:
            linear = SRGB_GAMMA_U8[px]
        else:
            linear = srgb_gamma_expand(px)
        lab[start : start + _LAB_CHUNK] = xyz_to_lab(linear_rgb_to_xyz(linear))
    return lab.reshape(rgb_arr.shape)


def rgb_to_lab(rgb: np.ndarray) -> np.ndarray:
    """Full reference pipeline: sRGB image (uint8 or float [0,1]) -> CIELAB.

    This is the color-conversion step at the top of both SLIC flowcharts
    (Figure 1). Returns float64 with L in [0, 100].

    uint8 input goes through the ``lab_float`` kernel of the default
    backend (the threaded C kernel when it compiles), the same dispatch
    the engine uses; float input runs :func:`lab_float_reference`. All
    backends return bitwise the same Lab (the float color contract).
    """
    rgb_arr = validate_rgb_image(rgb)
    if rgb_arr.dtype == np.uint8:
        from ..kernels import get_backend

        return get_backend().lab_float(rgb_arr)
    return lab_float_reference(rgb_arr)


def lab_to_rgb(lab: np.ndarray) -> np.ndarray:
    """Inverse pipeline: CIELAB -> sRGB float image clipped to [0, 1]."""
    linear = xyz_to_linear_rgb(lab_to_xyz(np.asarray(lab, dtype=np.float64)))
    return np.clip(srgb_gamma_compress(np.clip(linear, 0.0, 1.0)), 0.0, 1.0)
