"""The portable float color contract and its ``lab_float`` kernel.

Float RGB->Lab is defined as fixed-order elementwise IEEE operations: a
committed gamma table, ``X = (r*M00 + g*M01) + b*M02``, ``t = X / Xn``
and a self-contained cube root. These tests pin the table, bound the
cube root against exact arithmetic, and hold every backend to the numpy
definition bit for bit — including the whole RGB cube on a stride and
input sizes that leave ragged C blocks and thread slices.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import rgb_to_lab
from repro.color.constants import (
    D65_WHITE,
    LAB_EPSILON,
    SRGB_GAMMA_U8,
    SRGB_TO_XYZ,
)
from repro.color.reference import lab_float_reference, portable_cbrt
from repro.kernels import available_backends, get_backend

#: SHA-256 of the committed table's float64 bytes. A change here is a
#: change to every Lab value the uint8 path produces.
GAMMA_TABLE_SHA256 = (
    "145b17b23c87fbcc4311d4d22dc15aa62e87719367d51313e3a11156fa57eb66"
)

BACKENDS = available_backends()


def _ulp_distance(a: float, b: float) -> int:
    """Representable doubles between two finite non-negative values."""
    ia = np.array(a, dtype=np.float64).view(np.int64)
    ib = np.array(b, dtype=np.float64).view(np.int64)
    return abs(int(ia) - int(ib))


class TestGammaTable:
    def test_sha256_pinned(self):
        assert SRGB_GAMMA_U8.dtype == np.float64
        assert SRGB_GAMMA_U8.shape == (256,)
        digest = hashlib.sha256(SRGB_GAMMA_U8.tobytes()).hexdigest()
        assert digest == GAMMA_TABLE_SHA256

    def test_every_entry_within_one_ulp_of_math_pow(self):
        for v in range(256):
            x = v / 255.0
            want = x / 12.92 if x <= 0.04045 else math.pow(
                (x + 0.055) / 1.055, 2.4
            )
            assert _ulp_distance(SRGB_GAMMA_U8[v], want) <= 1, v

    def test_read_only(self):
        with pytest.raises(ValueError):
            SRGB_GAMMA_U8[0] = 1.0


class TestPortableCbrt:
    @staticmethod
    def _assert_within_one_ulp_of_exact(t, c):
        """The true cube root lies strictly between ``c``'s neighbours
        (exact rational arithmetic, so the check is host-independent)."""
        for x, y in zip(t, c):
            lo = Fraction(float(np.nextafter(y, 0.0)))
            hi = Fraction(float(np.nextafter(y, np.inf)))
            assert lo ** 3 < Fraction(float(x)) < hi ** 3, x

    def test_within_one_ulp_of_exact(self):
        rng = np.random.default_rng(5)
        t = np.concatenate([
            rng.uniform(LAB_EPSILON, 1.0, 400),
            2.0 ** rng.uniform(-1000.0, 1000.0, 200),
            [LAB_EPSILON, 1.0, 0.125, 8.0, 27.0, 2.0 ** -1022],
        ])
        self._assert_within_one_ulp_of_exact(t, portable_cbrt(t))

    def test_within_one_ulp_of_exact_on_lab_grid(self):
        """A dense grid over f()'s cube-root domain. (libm and SIMD
        ``np.cbrt`` are not a reference here: glibc's ``cbrt`` is off
        by up to ~2.5 ULP on this range.)"""
        t = np.linspace(LAB_EPSILON, 1.0, 3001)
        self._assert_within_one_ulp_of_exact(t, portable_cbrt(t))

    def test_exact_cubes_are_exact(self):
        t = np.array([0.125, 1.0, 8.0, 27.0, 0.001953125])
        assert np.array_equal(portable_cbrt(t), [0.5, 1.0, 2.0, 3.0, 0.125])


def _cube_sweep(stride: int) -> np.ndarray:
    """Every ``stride``-th color of the 2^24 RGB cube, as a 1-row image."""
    packed = np.arange(0, 1 << 24, stride, dtype=np.int64)
    rgb = np.stack(
        [(packed >> 16) & 0xFF, (packed >> 8) & 0xFF, packed & 0xFF], axis=-1
    )
    return rgb.astype(np.uint8)[None]


class TestLabFloatKernel:
    def test_strided_rgb_cube_sweep(self):
        """~275k colors spread over the whole cube: every backend is
        bitwise the numpy definition, which stays within 1e-12 of the
        host's BLAS + ``np.cbrt`` evaluation of Equations 1-4."""
        rgb = _cube_sweep(61)
        want = lab_float_reference(rgb)
        for name in BACKENDS:
            assert np.array_equal(get_backend(name).lab_float(rgb), want), name
        if "native-mt" in BACKENDS:
            got = get_backend("native-mt").lab_float(rgb, n_threads=3)
            assert np.array_equal(got, want)
        xyz = SRGB_GAMMA_U8[rgb] @ SRGB_TO_XYZ.T
        t = xyz / D65_WHITE
        f = np.where(t > LAB_EPSILON, np.cbrt(t), (903.3 * t + 16.0) / 116.0)
        legacy = np.stack(
            [
                116.0 * f[..., 1] - 16.0,
                500.0 * (f[..., 0] - f[..., 1]),
                200.0 * (f[..., 1] - f[..., 2]),
            ],
            axis=-1,
        )
        assert np.abs(want - legacy).max() < 1e-12

    def test_both_f_branches_exercised(self):
        rgb = _cube_sweep(61)
        t = (SRGB_GAMMA_U8[rgb] @ SRGB_TO_XYZ.T) / D65_WHITE
        assert (t <= LAB_EPSILON).any() and (t > LAB_EPSILON).any()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), h=st.integers(1, 9),
           w=st.integers(1, 300))
    def test_float_input_matches_reference(self, seed, h, w):
        """Float images have no table to gather from: every backend
        falls back to the numpy definition."""
        rng = np.random.default_rng(seed)
        img = rng.uniform(0.0, 1.0, size=(h, w, 3))
        want = lab_float_reference(img)
        for name in BACKENDS:
            assert np.array_equal(get_backend(name).lab_float(img), want), name

    @pytest.mark.parametrize("name", BACKENDS)
    def test_rgb_to_lab_dispatches_uint8(self, name, monkeypatch):
        """``rgb_to_lab`` sends uint8 through the default backend's
        ``lab_float``; the answer never depends on which one."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(7, 300, 3), dtype=np.uint8)
        assert np.array_equal(rgb_to_lab(img), lab_float_reference(img))

    def test_uint8_agrees_with_float_path_to_rounding(self):
        """The table is Equation 1 at the code values, so the uint8 and
        float paths agree to within rounding of the power function."""
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        a = rgb_to_lab(img)
        b = rgb_to_lab(img.astype(np.float64) / 255.0)
        assert np.abs(a - b).max() < 1e-11
