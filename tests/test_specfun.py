"""Bessel evaluator against closed forms, identities and mpmath."""

import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from eigenbump import specfun
from eigenbump.bump import (boundary_wavenumber, eigenfunction_eval, radius_for_index,
                           solve_eta)
from eigenbump.construct import build, enumerate_targets, step_potential
from eigenbump.eigensolve import (OffsetK, SecularProblem, _transfer_newton,
                                  polish_root_mp, secular_residual)
from eigenbump.errors import AccuracyError, InvalidArgumentError, PoleError
from eigenbump.specfun import BesselQuery, bessel_j, bessel_j_ratio, gamma_real

from conftest import exact_mpc, mpc_of, ratio_mp, reference_pair, reference_ratio

ORDERS = [-1.5, -0.5, 0.0, 0.5, 1.0, 2.0]


def mp_j(order, z):
    with mpmath.workdps(40):
        return complex(mpmath.besselj(order, mpmath.mpc(z)))


def half_integer_closed(order, z):
    root = cmath.sqrt(2.0 / (math.pi * z))
    if order == 0.5:
        return root * cmath.sin(z)
    if order == -0.5:
        return root * cmath.cos(z)
    if order == 1.5:
        return root * (cmath.sin(z) / z - cmath.cos(z))
    if order == -1.5:
        return root * (-cmath.cos(z) / z - cmath.sin(z))
    raise ValueError(order)


def sample_args(rng, count, r_lo=0.5, r_hi=30.0, im_max=10.0):
    radii = rng.uniform(r_lo, r_hi, count)
    angles = rng.uniform(-math.pi, math.pi, count)
    pts = radii * np.exp(1j * angles)
    pts.imag = np.clip(pts.imag, -im_max, im_max)
    # keep away from the negative real axis, where J has its branch cut
    bad = (pts.real < 0) & (np.abs(pts.imag) < 1e-6)
    pts.imag[bad] += 0.1
    return pts


class TestExamples:
    def test_j0_at_zero(self):
        assert bessel_j(BesselQuery(0.0, 0.0)) == 1.0 + 0.0j

    def test_half_order_at_half_pi(self):
        val = bessel_j(BesselQuery(0.5, math.pi / 2.0))
        assert val == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_negative_half_order_at_one(self):
        # sqrt(2/pi) cos(1), frozen from a 40-digit evaluation
        val = bessel_j(BesselQuery(-0.5, 1.0))
        assert val.real == pytest.approx(0.43109886801837608, rel=1e-12)
        assert val.imag == 0.0

    def test_gamma_values(self):
        assert gamma_real(1.0) == 1.0
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            gamma_real(0.0)
        with pytest.raises(InvalidArgumentError):
            gamma_real(-1.5)

    def test_gamma_accuracy_sweep(self):
        with mpmath.workdps(40):
            for x in np.linspace(0.05, 50.0, 220):
                want = float(mpmath.gamma(mpmath.mpf(float(x))))
                assert gamma_real(float(x)) == pytest.approx(want, rel=1e-12)


class TestLane:
    def test_native_up_to_threshold_mp_beyond(self):
        assert specfun.solve_bits(specfun.NATIVE_MAX) is None
        assert specfun.solve_bits(specfun.NATIVE_MAX * (1.0 + 1e-15)) is not None

    def test_bits_scale_with_phase(self):
        # 30 + floor(log10(scale + 1)) digits plus the guard bits
        assert specfun.phase_digits(1e17) == 47
        assert specfun.solve_bits(1e17) == mpmath.libmp.dps_to_prec(47) + specfun.FIXED_GUARD
        assert specfun.solve_bits(3.1e4) == mpmath.libmp.dps_to_prec(34) + specfun.FIXED_GUARD

    @pytest.mark.parametrize("order", [0.5, 1.0])
    def test_double_lane_ignores_mpmath_precision(self, order):
        z = complex(1234.5, 0.75)
        want = bessel_j_ratio(order, z), bessel_j(BesselQuery(order, z))
        for prec in (20, 300):
            with mpmath.workprec(prec):
                assert (bessel_j_ratio(order, z), bessel_j(BesselQuery(order, z))) == want

    def test_upper_sqrt_picks_decaying_root(self):
        assert specfun.upper_sqrt(complex(-4.0, -0.0)) == 2j
        assert specfun.upper_sqrt(complex(3.0, -4.0)) == complex(-2.0, 1.0)
        assert specfun.upper_sqrt(4.0) == 2.0


class TestRatio:
    def test_cot_one(self):
        val = bessel_j_ratio(0.5, 1.0)
        assert val == pytest.approx(0.6420926159343307, rel=1e-12)

    def test_zero_at_half_pi(self):
        val = bessel_j_ratio(0.5, math.pi / 2.0)
        assert abs(val) < 1e-12

    def test_small_argument_order_one(self):
        # J_0(0.1)/J_1(0.1), frozen from a 40-digit evaluation
        val = bessel_j_ratio(1.0, 0.1)
        assert val == pytest.approx(19.974989576818573, rel=1e-12)

    def test_against_mpmath(self, rng):
        pts = sample_args(rng, 120, r_hi=25.0)
        for order in ORDERS:
            for z in pts[::6]:
                z = complex(z)
                want = mp_j(order - 1.0, z) / mp_j(order, z)
                if not (1e-8 < abs(want) < 1e8):
                    continue
                got = bessel_j_ratio(order, z)
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_native_range_matches_mpmath(self, d):
        # inner arguments tau * a of desk bumps up to the native ceiling,
        # where a phase error eps*|z| would reach ~1e-12
        order = d / 2.0 - 1.0
        checked = 0
        for n in range(1, 6):
            nu = math.sqrt(float(enumerate_targets(n).q))
            for m in (8, 30, 100, 300, 1000, 3000, 9000, 9540):
                a = radius_for_index(d, nu, m)
                z = complex(nu, solve_eta(nu, a)) * a
                if not 25.0 < abs(z) <= specfun.NATIVE_MAX:
                    continue
                want = mp_j(order - 1.0, z) / mp_j(order, z)
                assert bessel_j_ratio(order, z) == pytest.approx(want, rel=1e-13)
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("order", [-0.5, 0.5, 1.5])
    @pytest.mark.parametrize("r", [3.1e4, 1e6, 1e10, 1e17])
    def test_mp_half_integer_matches_besselj(self, order, r):
        # the elementary ratio against the besselj pair, at the lane's
        # precision and an imaginary part like a desk bump's eta * a
        with mpmath.workdps(specfun.phase_digits(r)):
            z = mpmath.mpc(r, 12.5)
            want = mpmath.besselj(order - 1.0, z) / mpmath.besselj(order, z)
            got = ratio_mp(order, z)
            assert abs(got - want) <= 1e-30 * abs(want)

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("re,im", [(r, im) for r in (3.1e4, 1e6, 1e10, 1e17)
                                       for im in (12.5, 0.5)] + [(-1e6, 12.5)])
    def test_mp_integer_order_matches_besselj(self, order, re, im):
        # Hankel's expansion against the besselj pair at the lane's
        # precision, for the orders of d = 2, 4 and 6
        with mpmath.workdps(specfun.phase_digits(abs(re))):
            z = mpmath.mpc(re, im)
            want = mpmath.besselj(order - 1.0, z) / mpmath.besselj(order, z)
            got = ratio_mp(order, z)
            assert abs(got - want) <= 1e-30 * abs(want)

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0])
    def test_native_integer_order_reflected(self, order):
        # Re z < 0 in the Hankel band takes ratio(-z) = -ratio(z)
        for z in (-30.0 + 0.5j, -30.0 - 2.0j, -47.3 + 1.0j, -500.0 - 3.0j,
                  -1234.5 + 0.01j, -1e3 + 5.0j, -2.9e4 + 10.0j):
            want = mp_j(order - 1.0, z) / mp_j(order, z)
            assert bessel_j_ratio(order, z) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("order", [-0.5, 0.0, 0.5, 1.5])
    @pytest.mark.parametrize("z", [2.9e4 + 3.0j, 2.99e4 + 0.5j, -2.95e4 + 1.0j,
                                   3.1e4 + 3.0j, 3.02e4 + 12.5j, -3.05e4 + 1.0j])
    def test_lanes_agree_across_native_max(self, order, z):
        # the one core in double and at the lane's precision, on both sides
        # of the hand-off
        native = specfun._ratio(order, z)
        with mpmath.workdps(35):
            extended = complex(ratio_mp(order, z))
        assert native == pytest.approx(extended, rel=1e-15)
        assert bessel_j_ratio(order, z) == pytest.approx(extended, rel=1e-15)

    @pytest.mark.parametrize("order,z", [
        (1.5, 1e-5 + 0j), (1.5, 1e-3 + 1e-3j), (1.5, 0.5 + 0.2j),
        (1.5, 1.0 + 0.1j), (2.5, 0.05 + 0.01j), (2.5, 2.0 + 0.1j),
        (9.5, 3.0 + 0.5j), (9.5, 9.0 + 0.1j), (9.5, 12.5 + 0.5j),
        (-0.5, 1e-20 + 0j), (-0.5, 3e-12 + 1e-12j), (-1.5, 1e-3 + 1e-3j)])
    def test_half_integer_small_argument(self, order, z):
        # upward recurrence steps would cancel below |z| ~ order; negative
        # orders keep every digit of a small z in Hankel's w = 1/(8z)
        want = mp_j(order - 1.0, z) / mp_j(order, z)
        assert bessel_j_ratio(order, z) == pytest.approx(want, rel=1e-14)

    def test_mp_pole_detected(self):
        # sin z vanishes to the lane's precision at z = pi * 1e5
        with mpmath.workdps(specfun.phase_digits(math.pi * 1e5)):
            with pytest.raises(PoleError) as err:
                ratio_mp(0.5, mpmath.pi * 10 ** 5)
        assert err.value.distance < 1e-20

    def test_pole_detected(self):
        # first zero of J_0
        j0_zero = 2.404825557695773
        with pytest.raises(PoleError) as err:
            bessel_j_ratio(0.0, j0_zero)
        assert err.value.distance < 1e-10

    def test_rejects_zero_argument(self):
        with pytest.raises(InvalidArgumentError):
            bessel_j_ratio(0.5, 0.0)


def hankel_edge(order, prec=53):
    """The smallest |z|, to ~1e-9 relative, from which ``_hankel_counts``
    lets Hankel's sum serve ``order`` at prec bits."""
    lo, hi = 0.01, 1e6
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        try:
            specfun._hankel_counts((order,), mid, prec)
            hi = mid
        except AccuracyError:
            lo = mid
    return hi


def run_bounded(code, seconds=60):
    """The stdout of ``code`` run in a fresh interpreter, which is killed,
    failing the test, if it has not returned within ``seconds``."""
    src = str(Path(specfun.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=seconds, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return out.stdout


def ratio_outcome(ratio, order, z):
    """("value", the complex double) or ("pole", the PoleError distance)."""
    try:
        return "value", complex(ratio(order, z))
    except PoleError as err:
        return "pole", err.distance


def desk_arguments():
    """Inner arguments tau * a of desk bumps for d = 1, 2, 3 up to the
    native ceiling, from |z| ~ 0.8 on."""
    points = []
    for d in (1, 2, 3):
        for n in range(1, 6):
            nu = math.sqrt(float(enumerate_targets(n).q))
            for m in (0, 1, 3, 8, 30, 100, 300, 1000, 3000, 9000, 9540):
                a = radius_for_index(d, nu, m)
                z = complex(nu, solve_eta(nu, a)) * a
                if abs(z) <= specfun.NATIVE_MAX:
                    points.append(z)
    return points


class TestIntegerKernel:
    """The scaled-int kernel against the mpc and double arithmetic it
    replaced."""

    @pytest.mark.parametrize("order", [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_double_lane_matches_recurrence_and_sums(self, order):
        band = [complex(sign * math.sqrt(r * r - im * im), im)
                for r in (30.0, 1e2, 1e3, 1e4, 3e4) for im in (10.0, 0.5, -4.0)
                for sign in (1.0, -1.0)]
        checked = 0
        for z in desk_arguments() + band:
            if abs(z) < (order - 0.5 if order % 1.0 == 0.5 else 30.0):
                continue  # the _jv quotient, the same code before and after
            want = reference_ratio(order, z)
            assert abs(bessel_j_ratio(order, z) - want) <= 1e-15 * abs(want)
            checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("order", [0.0, 0.5])
    @pytest.mark.parametrize("factor", [0.1, 0.5, 2.0, 10.0])
    def test_double_pole_rule_parity(self, order, factor):
        # z at factor times the threshold distance, in Im z, from a zero of
        # J_order: of J_{1/2} at 100 pi, and of J_0 near |z| = 1e3
        with mpmath.workdps(30):
            zero = mpmath.mpc(100 * mpmath.pi)
            if order == 0.0:
                zero = mpmath.mpc(318 * mpmath.pi - mpmath.pi / 4)
                for _ in range(6):  # Newton from McMahon's first term
                    prev, cur = reference_pair(order, zero)
                    zero -= cur / prev
            prev, cur = reference_pair(order, zero)
            z = complex(float(zero.real), factor * 1e-12 / float(abs(prev)))
            distance = float(abs(mpmath.mpc(z) - zero))
        kernel = ratio_outcome(bessel_j_ratio, order, z)
        reference = ratio_outcome(reference_ratio, order, z)
        assert kernel[0] == reference[0] == ("pole" if factor < 1.0 else "value")
        assert kernel[1] == pytest.approx(reference[1], rel=1e-3)
        if kernel[0] == "pole":
            assert kernel[1] == pytest.approx(distance, rel=1e-2)

    @pytest.mark.parametrize("dps", [34, 50])
    @pytest.mark.parametrize("order", [-1.0, 0.0, 1.0, 2.0, -0.5, 0.5, 1.5])
    def test_same_double_as_mpc_reference(self, order, dps):
        # and the same value to the working precision, within the mpc
        # arithmetic's own rounding
        with mpmath.workdps(dps):
            for r in (3.1e4, 1e6, 1e10, 1e17):
                for im in (0.5, 12.5, 25.0):
                    for z in (mpmath.mpc(r, im), mpmath.mpc(-r, im)):
                        got = ratio_mp(order, z)
                        want = reference_ratio(order, z)
                        assert complex(got) == complex(want)
                        assert abs(got - want) <= 10.0 ** (3 - dps) * abs(want)

    @pytest.mark.parametrize("order", [0.0, 0.5])
    @pytest.mark.parametrize("factor", [0.1, 0.5, 2.0, 10.0])
    def test_pole_rule_parity(self, order, factor):
        # z at factor times the distance from a zero of J_order at which
        # |J_order| meets the threshold: 0.5 and 2 are decided in mpmath,
        # 0.1 and 10 on the integers' logarithm
        with mpmath.workdps(specfun.phase_digits(1e5)):
            zero = mpmath.mpc(31831 * mpmath.pi)
            if order == 0.0:
                zero -= mpmath.pi / 4
                for _ in range(6):  # Newton from McMahon's first term
                    prev, cur = reference_pair(order, zero)
                    zero -= cur / prev
            prev, cur = reference_pair(order, zero)
            assert abs(cur) < 1e-30
            slope = prev - (order / zero) * cur
            z = zero + factor * 1e-12 / abs(slope)
            kernel = ratio_outcome(ratio_mp, order, z)
            reference = ratio_outcome(reference_ratio, order, z)
        assert kernel[0] == reference[0] == ("pole" if factor < 1.0 else "value")
        if kernel[0] == "pole":
            assert kernel[1] == pytest.approx(reference[1], rel=1e-6)
            assert kernel[1] == pytest.approx(factor * 1e-12 / abs(slope), rel=1e-3)
        else:
            assert kernel[1] == reference[1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0.5, 1.0, math.sqrt(257.0 / 512.0)])
    def test_mp_lane_is_the_exact_product_path(self, d, nu):
        # an mpc holding a bump's tau a, exact at the phase's precision (at
        # least 113 bits against the product's 106), read as ints, gives
        # the exact-product path's fraction, int for int
        order = d / 2.0 - 1.0
        for m in [mant * 10 ** e for e in range(4, 19) for mant in (1, 3)]:
            if m > 10 ** 18:
                continue
            a = radius_for_index(d, nu, m)
            tau = complex(nu, solve_eta(nu, a))
            with mpmath.workdps(specfun.phase_digits(abs(tau * a))):
                z = exact_mpc(mpmath.mpc(tau) * a)
                got = specfun.bessel_ratio_mp(order, *z, mpmath.mp.prec)
                assert got == specfun.bessel_ratio_exact(order, tau, a)

    def test_mp_lane_builds_no_mpmath_objects(self, monkeypatch):
        # cos z and sin z, the pole rule and the rounding all run on ints
        # and libmp, also at a zero of J_{1/2}
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath object arithmetic in the ratio path")
        monkeypatch.setattr(mpmath, "cos_sin", refuse)
        monkeypatch.setattr(mpmath, "exp", refuse)
        with mpmath.workdps(40):
            for order in (0.0, 0.5, 1.0):
                for z in (mpmath.mpc(1e6, 12.5), mpmath.mpc(-1e17, 0.5)):
                    assert mpmath.isfinite(ratio_mp(order, z))
            with pytest.raises(PoleError):
                ratio_mp(0.5, mpmath.pi * 10 ** 5)

    def test_dist_squares_rounds_the_exact_modulus_once(self, rng):
        # |k1^2 - k2^2| for doubles and (seed, offset) pairs from 1e-3 to
        # 1e17, with gaps down to 1e-40 |k| and none, and offsets far below
        # an ulp of the seed; 5000 bits leave one rounding
        for _ in range(200):
            k1 = complex(rng.uniform(0.1, 3.0) * 10.0 ** rng.integers(-3, 18),
                         rng.uniform(1e-3, 1.0) * 10.0 ** rng.integers(-20, 1))
            gap = complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.integers(-40, 1)
            for pair in ((k1, k1 + gap * abs(k1)), (k1, k1),
                         (OffsetK(k1, k1 * 2.0 ** -120), k1),
                         (OffsetK(k1, gap * abs(k1)), OffsetK(k1 + gap, -gap * 1e-20))):
                with mpmath.workprec(5000):
                    want = float(abs(mpc_of(pair[0]) ** 2 - mpc_of(pair[1]) ** 2))
                assert specfun._dist_squares(*pair) == want


class TestInvariants:
    def test_recurrence_consistency(self, rng):
        pts = sample_args(rng, 240)
        for order in ORDERS:
            for z in pts[::8]:
                z = complex(z)
                j_lo = bessel_j(BesselQuery(order - 1.0, z, 1e-9))
                j_hi = bessel_j(BesselQuery(order + 1.0, z, 1e-9))
                j_mid = bessel_j(BesselQuery(order, z, 1e-9))
                rhs = (2.0 * order / z) * j_mid
                scale = max(abs(j_lo), abs(j_hi), abs(rhs), 1e-30)
                assert abs(j_lo + j_hi - rhs) / scale < 1e-9

    def test_derivative_identity(self, rng):
        pts = sample_args(rng, 160, im_max=5.0)
        h = 1e-6
        for order in ORDERS:
            for z in pts[::8]:
                z = complex(z)
                num = (bessel_j(BesselQuery(order, z + h))
                       - bessel_j(BesselQuery(order, z - h))) / (2.0 * h)
                want = bessel_j(BesselQuery(order - 1.0, z)) \
                    - order * bessel_j(BesselQuery(order, z)) / z
                envelope = math.sqrt(2.0 / (math.pi * abs(z))) * math.exp(abs(z.imag))
                assert abs(num - want) <= 1e-6 * max(1.0, envelope)

    def test_half_integer_closed_forms(self, rng):
        pts = sample_args(rng, 200)
        for order in (-1.5, -0.5, 0.5, 1.5):
            for z in pts[::5]:
                z = complex(z)
                want = half_integer_closed(order, z)
                got = bessel_j(BesselQuery(order, z, 1e-10))
                assert got == pytest.approx(want, rel=1e-10)

    def test_large_argument_leading_asymptotic(self, rng):
        for order in ORDERS:
            coeff = max(1.0, abs(4.0 * order * order - 1.0) / 8.0)
            for z in np.linspace(30.0, 100.0, 29):
                z = float(z)
                lead = math.sqrt(2.0 / (math.pi * z)) \
                    * math.cos(z - (2.0 * order + 1.0) * math.pi / 4.0)
                got = bessel_j(BesselQuery(order, z))
                envelope = 2.0 * coeff * math.sqrt(2.0 / (math.pi * z)) / z
                assert abs(got - lead) <= envelope

    def test_branch_crossover_accuracy(self):
        # values straddling |z| = 12 and the series/Hankel seam at 30
        for order in ORDERS:
            for base in (12.0, 30.0):
                for z in (complex(base - 1e-6, 0.4), complex(base + 1e-6, 0.4)):
                    got = bessel_j(BesselQuery(order, z))
                    assert got == pytest.approx(mp_j(order, z), rel=1e-12)

    def test_negative_integer_reflection(self, rng):
        pts = sample_args(rng, 40, r_hi=20.0)
        for m in (1, 2, 3):
            for z in pts[::10]:
                z = complex(z)
                want = (-1.0) ** m * bessel_j(BesselQuery(float(m), z))
                got = bessel_j(BesselQuery(float(-m), z))
                assert got == pytest.approx(want, rel=1e-12)


class TestHankelBand:
    """Hankel's expansion, one integer kernel serving both lanes wherever
    its terms fall until the remainder bound is met (``hankel_edge``): for
    integer orders 0-3 from |z| = 22.2-22.6, and for larger or
    half-integer orders, whose sums terminate, from |z| = (n^2 - 1/4)/2."""

    @pytest.mark.parametrize("order", [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    def test_half_integer_closed_form_below_30(self, order):
        for r in (12.5, 16.0, 20.0, 25.0, 29.5):
            for angle in np.linspace(-math.pi, math.pi, 24, endpoint=False):
                im = max(-10.0, min(10.0, r * math.sin(angle)))
                z = complex(r * math.cos(angle), im)
                if z.real < 0.0 and z.imag == 0.0:
                    continue
                got = bessel_j(BesselQuery(order, z))
                assert got == pytest.approx(mp_j(order, z), rel=1e-14)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("r", [30.0, 1e2, 1e3, 1e4, 3e4])
    def test_matches_mpmath(self, order, r):
        for im in (10.0, 0.5, -4.0):
            re = math.sqrt(r * r - im * im)
            for z in (complex(re, im), complex(-re, im)):
                got = bessel_j(BesselQuery(order, z))
                assert got == pytest.approx(mp_j(order, z), rel=1e-12)

    @pytest.mark.parametrize("order", [-1.0, -0.5, 0.0, 1.0, 1.5, 2.0])
    def test_double_sum_matches_mp_sum(self, order):
        # the kernel on a double argument against 40-digit besselj
        for z in (complex(30.0, 0.5), complex(1e3, -10.0), complex(3e4, 2.0)):
            want = mp_j(order, z)
            assert abs(specfun._jv_hankel(order, z) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("order,z,target", [
        (40.5, 13.0 + 0j, 1e-12), (20.5, 13.0 + 1.0j, 1e-10),
        (30.5, 25.0 + 2.0j, 1e-12), (40.5, 35.0 + 0.5j, 1e-12)])
    def test_half_integer_below_closed_form_takes_series(self, order, z, target):
        # below |z| = order - 1/2 the terminating sum's terms grow and cancel
        got = bessel_j(BesselQuery(order, z, target))
        assert got == pytest.approx(mp_j(order, z), rel=1e-13)

    def test_target_below_rounding_floor_refused(self):
        with pytest.raises(AccuracyError) as err:
            specfun._jv(0.0, 100.0 + 1.0j, 1e-17)
        assert err.value.achieved >= 1e-17

    def test_double_range_guard(self):
        with pytest.raises(AccuracyError):
            specfun._jv(0.0, complex(100.0, 710.0), 1e-12)

    @pytest.mark.parametrize("order", [0.0, 0.5])
    def test_double_range_guard_beyond_native_max(self, order):
        # a double argument stays in double precision at every |z|
        z = complex(1e5, 710.0)
        with pytest.raises(AccuracyError):
            bessel_j(BesselQuery(order, z))
        with pytest.raises(AccuracyError):
            bessel_j_ratio(order, z)

    def test_integer_orders_served_wherever_routed(self):
        # the routing rule's edge: the remainder bound's for orders 0-3, the
        # first term's (4 n^2 - 1)/(8 |z|) <= 1 from order 7 on; Hankel's
        # sum serves everywhere above it, and bessel_j matches besselj there
        for n in range(201):
            edge = hankel_edge(float(n))
            if n <= 3:
                assert 22.1 < edge < 22.7
            elif n >= 7:
                assert edge == pytest.approx((4 * n * n - 1) / 8.0, rel=1e-9)
            for az in (edge, edge + 0.25, edge + 1.0, 2.0 * edge, 10.0 * edge, 1e6):
                specfun._hankel_counts((float(n),), az, 53)
            with pytest.raises(AccuracyError):
                specfun._hankel_counts((float(n),), edge - 0.25, 53)
            z = complex(edge, 0.0) if n % 2 else complex(math.sqrt(edge ** 2 - 1.0), 1.0)
            want = mp_j(n, z)
            got = bessel_j(BesselQuery(float(n), z))
            assert abs(got - want) <= 2e-15 * max(abs(want), specfun._envelope(z))

    @pytest.mark.parametrize("order,z", [(-16.0, 31.0 + 0.5j), (-20.0, 35.5 + 0j)])
    def test_ratio_routes_by_both_orders(self, order, z):
        # J_{order-1} has the larger |order|: between the two orders' edges
        # Hankel's sum serves J_order but not J_{order-1}, so both take the
        # series; from the second edge on both take Hankel's
        edge, prev_edge = hankel_edge(order), hankel_edge(order - 1.0)
        assert edge < prev_edge
        between = 0.5 * (edge + prev_edge)
        specfun._hankel_counts((order,), between, 53)
        with pytest.raises(AccuracyError):
            specfun._hankel_counts((order, order - 1.0), between, 53)
        for r in (between, prev_edge):
            w = z * r / abs(z)
            want = mp_j(order - 1.0, w) / mp_j(order, w)
            assert bessel_j_ratio(order, w) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [3, 20, 60, 120, 200])
    def test_integer_order_at_band_edge(self, n):
        # Hankel's sum at and above the routing rule's edge; just below it
        # the series, or an AccuracyError beyond SERIES_MAX
        edge = hankel_edge(float(n))
        for az in (edge - 0.5, edge, 1.5 * edge):
            for im in (0.0, 3.0):
                z = complex(math.sqrt(az * az - im * im), im)
                want = mp_j(n, z)
                try:
                    got = bessel_j(BesselQuery(float(n), z))
                except AccuracyError:
                    assert az < edge and az > specfun.SERIES_MAX
                    continue
                assert abs(got - want) <= 2e-15 * max(abs(want), specfun._envelope(z))

    def test_zero_term_forms_skip_w(self, monkeypatch):
        # J_{-1/2}/J_{1/2}, d = 3's ratio: P = 1 and Q = 0 exactly for both
        # orders, so w = 1/(8z) is never formed; the ratio is cot z, as
        # the cos/sin reference gives it
        def refuse(*args):
            raise AssertionError("w formed for a zero-term sum")
        monkeypatch.setattr(specfun, "_fixed_w", refuse)
        for r in (3.0, 47.3, 1e3, 2.9e4, 1e8):
            for im in (0.5, -4.0):
                z = complex(r, im)
                want = reference_ratio(0.5, z)
                assert abs(bessel_j_ratio(0.5, z) - want) <= 1e-15 * abs(want)
        with mpmath.workdps(40):
            for z in (mpmath.mpc(3.1e4, 12.5), mpmath.mpc(1e10, 0.5), mpmath.mpc(-1e17, 25.0)):
                want = reference_ratio(0.5, z)
                got = ratio_mp(0.5, z)
                assert complex(got) == complex(want)
                assert abs(got - want) <= 1e-37 * abs(want)


class TestRouting:
    """One routing rule (``_hankel_counts``) for J, the double-lane ratio
    and the exact lane, and no silent miss on either side of it."""

    @pytest.mark.parametrize("n", [20, 60, 100, 200])
    def test_no_silent_miss(self, n):
        # an 84-point grid, |z| = n + 15, n + 30, 2n on seven rays, where
        # Hankel's sum once served terms that grow first: J within 2e-15
        # max(|J|, envelope) and the ratio within 1e-12 of 60-digit
        # besselj, or a loud AccuracyError (PoleError)
        for r in (n + 15, n + 30, 2 * n):
            for angle in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5):
                z = cmath.rect(r, angle)
                with mpmath.workdps(60):
                    cur = mpmath.besselj(n, mpmath.mpc(z))
                    ratio = complex(mpmath.besselj(n - 1, mpmath.mpc(z)) / cur)
                    cur = complex(cur)
                try:
                    got = bessel_j(BesselQuery(float(n), z))
                    assert abs(got - cur) <= 2e-15 * max(abs(cur), specfun._envelope(z))
                except AccuracyError:
                    pass
                try:
                    assert abs(bessel_j_ratio(float(n), z) - ratio) <= 1e-12 * abs(ratio)
                except (AccuracyError, PoleError):
                    pass

    @pytest.mark.parametrize("order", [0.0, 1.0, 2.0, 3.0])
    def test_small_orders_from_bound_edge_to_30(self, order):
        # Hankel's sum now serves these from its remainder bound's edge
        edge = hankel_edge(order)
        assert 22.1 < edge < 22.7
        for r in np.linspace(edge, 30.0, 9):
            for angle in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5):
                z = cmath.rect(float(r), angle)
                assert specfun._hankel_counts((order,), abs(z), 53)[0] >= 0
                got = bessel_j(BesselQuery(order, z))
                assert abs(got - mp_j(order, z)) <= 2e-15 * specfun._envelope(z)

    def test_every_path_follows_the_router(self, monkeypatch):
        # made to refuse everywhere, the router sends J and the double
        # ratio to the series and makes the exact lane raise
        asked = []

        def refuse(orders, az, prec):
            asked.append(tuple(orders))
            raise AccuracyError("refused", achieved=1.0)
        monkeypatch.setattr(specfun, "_hankel_counts", refuse)
        z = complex(100.0, 1.0)
        assert bessel_j(BesselQuery(0.0, z)) == pytest.approx(mp_j(0.0, z), rel=1e-13)
        want = mp_j(-1.0, z) / mp_j(0.0, z)
        assert bessel_j_ratio(0.0, z) == pytest.approx(want, rel=1e-13)
        with pytest.raises(AccuracyError):
            specfun.bessel_ratio_exact(0.0, complex(1.0, 1e-6), 1e6)
        assert asked == [(0.0,), (0.0, -1.0), (0.0, -1.0)]

    def test_non_half_integer_order_refused_at_every_entry(self):
        # the exact entries once returned another order's ratio
        z = complex(1e6, 1.0)
        for call in (lambda: bessel_j(BesselQuery(0.3, z)),
                     lambda: specfun._jv(0.3, z),
                     lambda: bessel_j_ratio(0.3, z),
                     lambda: specfun.bessel_ratio_exact(0.3, z, 1.0),
                     lambda: specfun.bessel_ratio_mp(0.3, *specfun._exact(z), 113)):
            with pytest.raises(InvalidArgumentError):
                call()

    @pytest.mark.parametrize("lane", ["exact", "mp"])
    def test_hankel_bound_does_not_overflow(self, lane):
        # exp(|nu^2 - 1/4| pi / (2 |z|)) once overflowed: an AccuracyError
        with pytest.raises(AccuracyError):
            if lane == "exact":
                specfun.bessel_ratio_exact(60.0, 1 + 0.1j, 1.0)
            else:
                specfun.bessel_ratio_mp(60.0, *specfun._exact(1 + 0.1j),
                                        mpmath.libmp.dps_to_prec(20))

    def test_series_ratio_meets_the_pole_rule(self):
        # J_1(1e-10) ~ 5e-11: within 1e-12 e^|Im z| of J_1's zero at z = 0,
        # where J_1/J_1' ~ z
        with pytest.raises(PoleError) as err:
            bessel_j_ratio(1.0, 1e-10)
        assert err.value.distance == pytest.approx(1e-10, rel=1e-6)


class TestSeriesBand:
    """The ascending series below Hankel's band, against 50-digit besselj
    and ``_envelope``, the natural size of J there."""

    @pytest.mark.parametrize("order", [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_matches_besselj_to_envelope(self, order):
        # all four quadrants, |Im z| up to 29, at the default target
        for r in (12.5, 15.0, 18.5, 22.0, 25.5, 29.5):
            for j in range(12):
                angle = (j + 0.25) * math.pi / 6.0
                z = complex(r * math.cos(angle), max(-29.0, min(29.0, r * math.sin(angle))))
                with mpmath.workdps(50):
                    want = complex(mpmath.besselj(order, mpmath.mpc(z)))
                got = bessel_j(BesselQuery(order, z))
                assert abs(got - want) <= 2e-15 * specfun._envelope(z)

    @pytest.mark.parametrize("order,z,target", [
        (0.0, 15.0 + 25.0j, 1e-12), (1.0, 12.5 + 20.0j, 1e-12),
        (0.0, 4.885513943043596 - 28.98255662128374j, 1e-8)])
    def test_large_imaginary_part(self, order, z, target):
        # the series' terms reach e^|z| and cancel to e^|Im z|; a target of
        # 1e-8 still gets double precision
        got = specfun._jv(order, z, target)
        assert abs(got - mp_j(order, z)) <= 2e-15 * specfun._envelope(z)

    def test_moderate_even_d_bump_wavenumber(self):
        # |tau a| ~ 11: the ratio J_-1/J_0 is a quotient of two series
        bump = build(2, 3.0, 8.0, 1).entries[0].bump
        with pytest.raises(AccuracyError):
            specfun._hankel_counts((0.0, -1.0), abs(bump.tau * bump.a), 53)
        with mpmath.workdps(50):
            tau, a = mpmath.mpc(bump.tau), mpmath.mpf(bump.a)
            z = tau * a
            k = -1j * tau * mpmath.besselj(-1, z) / mpmath.besselj(0, z) - 0.5j / a
            assert abs(bump.k - k) <= 3e-16 * abs(k)


class TestBigArguments:
    @pytest.mark.parametrize("order", [-1.0, -0.5, 0.0, 1.0, 1.5])
    def test_matches_mpmath_beyond_native(self, order):
        for z in (5e4 + 3j, 1e6 + 10j, 3e8 + 1j, complex(1e12, 5.0),
                  complex(-7e5, 4.0)):
            got = bessel_j(BesselQuery(order, z))
            want = mp_j(order, z)
            assert got == pytest.approx(want, rel=1e-12)

    def test_ratio_beyond_native(self):
        z = complex(2e5, 8.0)
        got = bessel_j_ratio(0.5, z)
        want = mp_j(-0.5, z) / mp_j(0.5, z)
        assert got == pytest.approx(want, rel=1e-12)


class TestConcurrency:
    def test_parallel_mixed_lane_calls_are_consistent(self):
        # the extended-precision lane shares no state, so nothing serialises
        # it; hammer it (secular residuals of desk-radius bumps, d = 1 and 2,
        # their boundary wavenumbers, the transfer solves of the seed-0 desk
        # potential from its entry seeds, the Robin phi = 0.5 shift solve
        # that takes 9 Newton steps, and the secular polish of a desk bump)
        # and the double lane from 8 threads, requiring bitwise agreement
        # with the serial results
        from concurrent.futures import ThreadPoolExecutor
        desk = []
        for d in (1, 2):
            a = radius_for_index(d, 1.0, 10 ** 6)
            tau = complex(1.0, solve_eta(1.0, a))
            k = boundary_wavenumber(d, tau, a)
            problem = SecularProblem(d=d, c=k * k - tau * tau, a=a, branch_ref=tau)
            desk += [functools.partial(secular_residual, problem, k),
                     functools.partial(boundary_wavenumber, d, tau, a)]
        whole = build(1, 1.5, 1.0, 5)
        pot = step_potential(whole.entries, whole.domain, whole.phi)
        solves = [functools.partial(_transfer_newton, pot, e._k_mu) for e in whole.entries]
        robin = build(1, 1.5, 1.0, 3, domain="robin", phi=0.5)
        first = robin.entries[0]
        solves.append(functools.partial(
            _transfer_newton, step_potential([first], "robin", 0.5), first.bump.k))
        bump = whole.entries[-1].bump
        solves.append(functools.partial(
            polish_root_mp, SecularProblem(d=1, c=bump.c, a=bump.a, branch_ref=bump.tau),
            bump.k))
        assert all(isinstance(job()[0], OffsetK) for job in solves)
        jobs = [desk[0], functools.partial(bessel_j, BesselQuery(-0.5, complex(1.0, 0.2))),
                desk[1], functools.partial(bessel_j, BesselQuery(1.5, complex(9e4, 2.0))),
                functools.partial(bessel_j, BesselQuery(0.0, complex(25.0, 3.0))),
                desk[2], desk[3], *solves] * 8
        expected = [job() for job in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: job(), jobs))
        assert got == expected


class TestNoBesselj:
    """No package path reaches mpmath.besselj; it is a test-only reference."""

    @pytest.fixture(autouse=True)
    def _forbid_besselj(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.besselj called from the package")
        monkeypatch.setattr(mpmath, "besselj", refuse)

    def test_d2_build(self):
        ledger = build(2, 3.0, 1.0, 2)
        assert len(ledger.entries) == 2

    def test_d4_build(self):
        ledger = build(4, 5.0, 1.0, 2)
        assert len(ledger.entries) == 2

    @pytest.fixture(scope="class")
    def desk_d2_bump(self):
        # class scope: built before the function-scoped guard is in place
        return build(2, 3.0, 1.0, 1).entries[0].bump

    def test_d2_desk_eigenfunction(self, desk_d2_bump):
        a = desk_d2_bump.a
        assert abs(desk_d2_bump.tau) * a > specfun.NATIVE_MAX
        value = eigenfunction_eval(desk_d2_bump, 0.0, [0.0, a * (1.0 - 1e-9)])
        assert cmath.isfinite(value)


class TestErrors:
    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bessel_j(BesselQuery(0.0, complex(math.nan, 0.0)))
        with pytest.raises(InvalidArgumentError):
            BesselQuery(math.inf, 1.0)

    def test_accuracy_target_validated(self):
        with pytest.raises(InvalidArgumentError):
            BesselQuery(0.0, 1.0, accuracy_target=1e-3)
        with pytest.raises(InvalidArgumentError):
            BesselQuery(0.0, 1.0, accuracy_target=0.0)

    def test_negative_noninteger_order_at_origin(self):
        with pytest.raises(InvalidArgumentError):
            bessel_j(BesselQuery(-0.5, 0.0))

    @pytest.mark.parametrize("re,im", [(math.inf, 1.0), (1e6, math.nan), (0.0, 0.0)])
    def test_mp_lane_refuses_nonfinite_or_zero(self, re, im):
        # once a misleading PoleError, a hang and a bare ZeroDivisionError
        # in the mpc entry; the extended lane reads its arguments from
        # doubles, and its int entry takes an exact, so finite, z
        code = ("from eigenbump import specfun\n"
                "from eigenbump.errors import InvalidArgumentError\n"
                "z = complex(float(%r), float(%r))\n"
                "for call in (lambda: specfun.bessel_ratio_exact(0.0, z, 1e6),\n"
                "             lambda: specfun.bessel_ratio_mp(0.0, *specfun._exact(z), 113)):\n"
                "    try:\n"
                "        call()\n"
                "    except InvalidArgumentError:\n"
                "        print('refused')\n"
                "    except (OverflowError, ValueError):\n"
                "        print('unreadable')\n" % (str(re), str(im)))
        want = "refused" if math.isfinite(re) and math.isfinite(im) else "unreadable"
        assert run_bounded(code).split() == ["refused", want]

    def test_hankel_terms_stop_beyond_double_exponents(self):
        # 2^-(1066 + 10) underflows a double: the first term, 1/(8|z|) ~
        # 2^-965, is kept and the second, ~2^-1930, ends the sum
        code = "from eigenbump import specfun; print(specfun._hankel_terms(0.0, 1e290, 1066))"
        assert run_bounded(code).strip() == "1"
        with pytest.raises(InvalidArgumentError):
            specfun._hankel_terms(0.0, math.inf, 53)

    def test_d2_boundary_wavenumber_beyond_double_exponents(self):
        # m = 1e290 takes 320 digits, 1066 bits, on the exact-product path
        code = ("from eigenbump.bump import boundary_wavenumber, radius_for_index, solve_eta\n"
                "a = radius_for_index(2, 1.0, 10 ** 290)\n"
                "print(boundary_wavenumber(2, complex(1.0, solve_eta(1.0, a)), a).imag)")
        assert float(run_bounded(code)) > 0.0

    def test_mp_hankel_refuses_small_argument(self):
        # at |z| ~ 5 the expansion's smallest term is ~e^{-10}, far above
        # 34 digits: the sum must fail instead of returning it
        with mpmath.workdps(34):
            with pytest.raises(AccuracyError) as err:
                ratio_mp(0.0, mpmath.mpc(5.0, 1.0))
        assert err.value.achieved > 1e-34

    @pytest.mark.parametrize("z,order", [
        (20.0 + 0j, 62.0), (20.0 + 0j, 100.0), (29.0 + 1.0j, 62.0), (29.0 + 1.0j, 100.0),
        (35.0 + 0j, 40.0), (30.5 + 0j, 35.0), (40.0 + 0j, 45.0), (31.0 + 0.5j, 60.0),
        (50.0 + 0j, 80.0)])
    def test_integer_order_above_argument(self, order, z):
        # below |z| = order + 15 the series serves, where Hankel's
        # expansion cannot reach 53 bits
        got = bessel_j(BesselQuery(order, z))
        assert got == pytest.approx(mp_j(order, z), rel=1e-13)

    @pytest.mark.parametrize("z", [0.5 + 0.1j, 20.0 + 1.0j, 1e3 + 1.0j,
                                   1e5 + 1.0j])
    def test_non_half_integer_order_refused(self, z):
        # both expansions take 2 order as an int, so order 0.3 would
        # silently return another order's value
        with pytest.raises(InvalidArgumentError):
            bessel_j(BesselQuery(0.3, z))
        with pytest.raises(InvalidArgumentError):
            bessel_j_ratio(0.3, z)

    @pytest.mark.parametrize("order,z", [(200.0, 100.0 + 0j), (171.0, 5.0 + 1.0j)])
    def test_series_beyond_gamma_overflow(self, order, z):
        # (z/2)^order and Gamma(order + 1) overflow a double, J does not
        with mpmath.workdps(50):
            want = complex(mpmath.besselj(order, mpmath.mpc(z)))
        assert bessel_j(BesselQuery(order, z)) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("order,z", [(-1.5, 0.5 + 0.2j), (-2.5, 1.0 - 1.0j),
                                         (-3.5, 2.0 + 0.5j)])
    def test_series_negative_half_integer_sign(self, order, z):
        # _jv sends these orders to Hankel's kernel; the series itself
        # takes 1/Gamma(order + 1) < 0 at order -3/2, -7/2, ...
        with mpmath.workdps(50):
            want = complex(mpmath.besselj(order, mpmath.mpc(z)))
        assert specfun._jv_series(order, z) == pytest.approx(want, rel=1e-13)

    def test_series_result_beyond_double_range_refused(self):
        # J_1500(1500i) ~ e^800: an AccuracyError, not an infinity
        with pytest.raises(AccuracyError):
            bessel_j(BesselQuery(1500.0, 1500j))

    def test_accuracy_error_carries_estimate(self):
        # an impossible target below Hankel's band must fail loudly
        with pytest.raises(AccuracyError) as err:
            specfun._jv(2.0, complex(20.0, 9.0), 1e-30)
        assert err.value.achieved is not None and err.value.achieved > 1e-30
