"""Shared fixtures, and the Bessel ratio in mpc or double arithmetic as it
ran before the integer kernel: the reference of the specfun and bump tests."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from eigenbump import bump as bumpmod
from eigenbump import specfun
from eigenbump.errors import AccuracyError, PoleError


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def moderate_bump():
    """One generous-budget bump whose grids and transfers stay cheap."""
    return bumpmod.design_bump(1, 2.0, 1.0, 2.0, 2.0, 0.25)


@pytest.fixture(scope="session")
def moderate_bumps():
    """Small matrix of generous d=1 bumps (native double lane)."""
    out = []
    for lam in (0.5, 1.0, 2.0):
        out.append(bumpmod.design_bump(1, 2.0, lam, 2.0, 2.0, 0.45))
    return out


@pytest.fixture
def zgttrs_calls(monkeypatch):
    """A list that grows by one entry per tridiagonal solve (LAPACK zgttrs,
    as the grid code calls it) for the rest of the test."""
    import scipy.linalg.lapack

    original = scipy.linalg.lapack.zgttrs
    calls = []

    def zgttrs(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg.lapack, "zgttrs", zgttrs)
    return calls


def reference_hankel_pq(order, z):
    """Hankel's P and Q summed in the arithmetic of z, as both lanes did
    before the integer kernel: double for a complex (53 bits), mpc at the
    working precision for an mpmath number; the same stop rule, with X(l)
    evaluated per term."""
    native = isinstance(z, complex)
    bits = 53 if native else mpmath.mp.prec
    mu = 4.0 * order * order if native else 4 * mpmath.mpf(order) ** 2
    az, mu_f = abs(complex(z)), float(mu)
    tol = 2.0 ** -(bits + 10)
    front = 2.0 * math.exp(abs(0.25 * mu_f - 0.25) * 0.5 * math.pi / az)
    w = 1 / (8 * z)
    term, p, q = 1, 1, 0
    size, k = 1.0, 0
    while True:
        k += 1
        step = abs(mu_f - (2 * k - 1) ** 2) / (8.0 * k * az)
        size *= step
        x_k = math.sqrt(math.pi) * math.exp(
            math.lgamma(0.5 * k + 1.0) - math.lgamma(0.5 * k + 0.5))
        if k >= abs(order) - 0.5 and front * x_k * size < tol:
            return p, q
        if step >= 1.0 and k > abs(order) + 0.5:
            raise AccuracyError("reference sum diverges", achieved=front * x_k * size)
        term = term * w * (mu - (2 * k - 1) ** 2) / k
        signed = -term if (k // 2) % 2 else term
        if k % 2:
            q += signed
        else:
            p += signed


def reference_pair(order, z):
    """(J_{order-1}, J_order) up to a common factor in the arithmetic of z,
    for Re z >= 0 at integer orders: the forms of the ratio before the
    integer kernel.  Half-integer orders: the cos/sin pair carried by the
    three-term recurrence (in double only valid for |z| >= order - 1/2);
    integer orders: two Hankel forms sharing one theta rotation."""
    native = isinstance(z, complex)
    cos_z, sin_z = (cmath.cos(z), cmath.sin(z)) if native else mpmath.cos_sin(z)
    if order % 1.0 == 0.5:
        prev, cur, n = cos_z, sin_z, 0.5
        while n > order:
            prev, cur, n = 2.0 * (n - 1.0) / z * prev - cur, prev, n - 1.0
        while n < order:
            prev, cur, n = cur, 2.0 * n / z * cur - prev, n + 1.0
        return prev, cur
    if native:
        theta = (0.5 * order + 0.25) * math.pi
        cos_t, sin_t = math.cos(theta), math.sin(theta)
    else:
        rot = mpmath.expjpi(0.5 * order + 0.25)
        cos_t, sin_t = rot.real, rot.imag
    cos_chi = cos_z * cos_t + sin_z * sin_t
    sin_chi = sin_z * cos_t - cos_z * sin_t
    p, q = reference_hankel_pq(order, z)
    p_prev, q_prev = reference_hankel_pq(order - 1.0, z)
    return -(p_prev * sin_chi + q_prev * cos_chi), p * cos_chi - q * sin_chi


def reference_ratio(order, z):
    """The ratio in the arithmetic of z, with its pole rule, as it ran
    before the integer kernel (for a complex: at half-integer orders with
    |z| >= order - 1/2 and at |z| >= 30)."""
    if order % 1.0 != 0.5 and z.real < 0:
        return -reference_ratio(order, -z)
    prev, cur = reference_pair(order, z)
    exp = math.exp if isinstance(z, complex) else mpmath.exp
    if abs(cur) < 1e-12 * exp(abs(z.imag)):
        slope = prev - (order / z) * cur
        raise PoleError("reference pole", distance=float(abs(cur / slope)))
    return prev / cur


def exact_mpc(z):
    """A finite mpc as ints (x, y, s) with z = (x + iy) / 2^s exactly."""
    s = max(0, *(-exp for _, _, exp, _ in z._mpc_))
    return (*((-1) ** sign * int(man) << exp + s for sign, man, exp, _ in z._mpc_), s)


def ratio_mp(order, z):
    """``specfun.bessel_ratio_mp`` at an mpc z, which is exact, and at
    mpmath's working precision, its exact fraction rounded to an mpc at
    that precision."""
    prec = mpmath.mp.prec
    re, im, den = specfun.bessel_ratio_mp(order, *exact_mpc(mpmath.mpc(z)), prec)
    return mpmath.mp.make_mpc(tuple(mpmath.libmp.from_rational(v, den, prec, "n")
                                    for v in (re, im)))


def mpc_of(k):
    """A wavenumber, a complex or an exact (seed, offset) pair, as an mpc
    at the working precision (exact where it holds the sum)."""
    return sum(map(mpmath.mpc, k)) if isinstance(k, tuple) else mpmath.mpc(k)
