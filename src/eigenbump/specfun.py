"""Bessel functions J_n of the first kind, integer and half-integer order,
complex argument.

J has two expansions, both summed on Python ints scaled by 2^bits and
rounded once:

  * the ascending series (DLMF 10.2.2) below Hankel's band, with enough
    bits that its e^|z| cancellation still leaves double precision,
  * Hankel's large-argument expansion (DLMF 10.17.3) from its band on
    (``_hankel_serves``): integer orders from |z| = max(30, |order| + 15),
    half-integer orders, whose sum terminates at their closed form, from
    |z| = order - 1/2.

Other orders raise InvalidArgumentError: a bump in dimension d only asks
for orders d/2 - 1 and d/2 - 2.

A double argument is exact, and libm reduces its cos and sin to below an
ulp at any size, so ``bessel_j`` and ``bessel_j_ratio`` run in double
precision at every |z|.  A phase formed from a product beyond ``|z| ~
3e4`` (NATIVE_MAX) would lose more than the accuracy this library
promises to its rounding, so beyond it the ratio runs on exact ints at
the phase's precision (``phase_digits``): a bump's z = tau * a, a product
of two doubles, in ``bessel_ratio_exact``, and an mpmath lane argument, an
exact binary number, in ``bessel_ratio_mp``.  cos z and sin z then come
from mpmath's integer layer (``libmp``); no mpmath number or working
precision enters the kernel.  The transfer and secular solves pick their
arithmetic through the package's one precision lane (``lane``), which
delegates to mpmath at that same precision.

Hankel's expansion has one evaluator, an integer kernel
(``_fixed_forms``) fed with cos z and sin z as scaled ints and z as
exact ints, from a double or from the exact path.  The ratio
J_{n-1}(z)/J_n(z) is the quotient of two of its forms (``_hankel_ratio``)
wherever Hankel's expansion serves, and always on the exact path; else
the quotient of two series values.  Near a zero of the denominator it
raises PoleError: for the forms by one rule at the lane's precision, 53
bits for a double (``_near_pole``).
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import threading
from dataclasses import dataclass

import mpmath
from mpmath import libmp

from .errors import AccuracyError, InvalidArgumentError, PoleError

ASYMPT_MIN = 30.0
# largest phase a ``lane`` caller forms in double precision; above this
# the phase error eps*scale of a rounded product would exceed ~1e-11
NATIVE_MAX = 3.0e4

# mpmath's working precision is process-global; every extended-precision
# block in the package takes this (reentrant) lock so the native double
# lane stays freely concurrent
MP_LOCK = threading.RLock()

# libmp keeps pi and log 2 at the highest precision asked for so far and
# grows them by two unlocked writes, which a concurrent reader can see half
# done.  ``bessel_ratio_exact`` and the double lane's pole rule call libmp
# without MP_LOCK, so both are filled here once beyond any precision the
# package asks for: phase_digits of |z| < 2^1024, plus the magnitude bits
# of the reduction mod pi/2.
libmp.pi_fixed(4096)
libmp.ln2_fixed(4096)


def upper_sqrt(w: complex) -> complex:
    """The square root of w in the closed upper half-plane (Im >= 0, and
    Re >= 0 on the real axis): the wavenumber of a decaying solution."""
    s = cmath.sqrt(w)
    if s.imag < 0.0 or (s.imag == 0.0 and s.real < 0.0):
        s = -s
    return s


class _Native:
    """Double-precision arithmetic for phases up to NATIVE_MAX."""

    mp = False
    sqrt = staticmethod(cmath.sqrt)
    exp = staticmethod(cmath.exp)
    lift = staticmethod(complex)

    @staticmethod
    def bessel_ratio(order, z):
        return bessel_j_ratio(order, z)


class _MP:
    """mpmath arithmetic at the precision set by ``lane``."""

    mp = True
    sqrt = staticmethod(mpmath.sqrt)
    exp = staticmethod(mpmath.exp)
    lift = staticmethod(mpmath.mpc)

    @staticmethod
    def bessel_ratio(order, z):
        return bessel_ratio_mp(order, z)


def phase_digits(scale: float) -> int:
    """Decimal digits for a computation beyond NATIVE_MAX whose phase
    reaches ``scale`` radians: 30 + floor(log10(scale + 1)), so that a
    phase formed from a product (tau * a, kappa * L) keeps an error far
    below every tolerance."""
    return 30 + int(math.log10(scale + 1.0))


@contextlib.contextmanager
def lane(scale: float):
    """Arithmetic for a computation whose phase reaches ``scale`` radians.

    Up to NATIVE_MAX this yields the double-precision ops.  Beyond it
    yields the mpmath ops, holding MP_LOCK with the working precision at
    ``phase_digits(scale)``; a double argument alone is exact and needs no
    lane.  Both carry ``sqrt``, ``exp``, ``lift`` (into the lane),
    ``bessel_ratio`` and the flag ``mp``; ``complex`` takes a lane number
    back to double.
    """
    if scale <= NATIVE_MAX:
        yield _Native
        return
    with MP_LOCK, mpmath.workdps(phase_digits(scale)):
        yield _MP


@dataclass(frozen=True)
class BesselQuery:
    """One evaluation request: J_order(argument) to a relative tolerance,
    for an integer or half-integer order."""

    order: float
    argument: complex
    accuracy_target: float = 1e-12

    def __post_init__(self):
        if not (self.accuracy_target > 0.0 and self.accuracy_target <= 1e-6):
            raise InvalidArgumentError(
                "accuracy_target must lie in (0, 1e-6], got %r" % (self.accuracy_target,))
        if not (math.isfinite(self.order) and cmath.isfinite(self.argument)):
            raise InvalidArgumentError("order and argument must be finite")


def gamma_real(x: float) -> float:
    """Gamma function for positive real x."""
    if not math.isfinite(x) or x <= 0.0:
        raise InvalidArgumentError("gamma_real requires finite x > 0, got %r" % (x,))
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise InvalidArgumentError("gamma_real overflow at x=%r" % (x,)) from exc


def bessel_j(query: BesselQuery) -> complex:
    """Evaluate J_order(z) with relative error <= query.accuracy_target.

    Raises AccuracyError (carrying the achieved estimate) if the active
    expansion cannot reach the target, InvalidArgumentError on non-finite
    input or an order that is neither an integer nor a half-integer.
    """
    return _jv(query.order, complex(query.argument), query.accuracy_target)


def _jv(order: float, z: complex, target: float = 1e-12) -> complex:
    """J_order(z) to a relative tolerance ``target``.

    Hankel's kernel where ``_hankel_serves``, with Re z < 0 first rotated
    into the right half-plane, where its remainder bound holds; the series
    elsewhere.  Either result carries the rounding of its double inputs, a
    floor of 4e-16 of ``_envelope``, so a smaller ``target`` is an
    AccuracyError.
    """
    if not (math.isfinite(order) and cmath.isfinite(z)):
        raise InvalidArgumentError("bessel_j requires finite order and argument")
    if (2.0 * order) % 1.0 != 0.0:
        raise InvalidArgumentError(
            "bessel_j takes integer and half-integer orders only, got %r" % (order,))

    # negative integer order: J_{-m} = (-1)^m J_m
    if order < 0.0 and order == math.floor(order):
        m = int(-order)
        return (-1.0) ** m * _jv(float(m), z, target)

    az = abs(z)
    if az == 0.0:
        if order == 0.0:
            return 1.0 + 0.0j
        if order > 0.0:
            return 0.0 + 0.0j
        raise InvalidArgumentError(
            "J_n(0) diverges for negative half-integer order %r" % (order,))
    if target < 4e-16:
        raise AccuracyError("J_n below the rounding floor of its double inputs",
                            achieved=4e-16)
    if not _hankel_serves(order, az):
        return _jv_series(order, z)
    if z.real < 0.0:
        # J_n(z e^{+-i pi}) = e^{+-i n pi} J_n(z)
        phase = cmath.exp(1j * math.pi * order) if z.imag >= 0.0 \
            else cmath.exp(-1j * math.pi * order)
        return phase * _jv_hankel(order, -z)
    return _jv_hankel(order, z)


def _hankel_serves(order: float, az: float) -> bool:
    """Whether Hankel's expansion serves order ``order`` at |z| = az in
    double precision: an integer order from max(ASYMPT_MIN, |order| + 15)
    on, where its terms fall below 2^-63 before they grow; a half-integer
    order, whose sum terminates, from |z| = order - 1/2 on, below which
    its terms grow and cancel (ten digits at order 3/2, |z| = 1e-5)."""
    if order % 1.0 == 0.5:
        return az >= order - 0.5
    return az >= max(ASYMPT_MIN, abs(order) + 15.0)


def _jv_series(order: float, z: complex) -> complex:
    """The ascending series (DLMF 10.2.2) on scaled ints.

    J_n(z) = (z/2)^n / Gamma(n+1) * S, with S = sum_k t_k, t_0 = 1 and
    t_k = t_(k-1) (-z^2/2) / (k (2n + 2k)), each term floored once from
    the exact z.  The terms reach e^|z| before they cancel to J ~
    e^|Im z|, so S runs at bits = 53 + FIXED_GUARD + ceil(|z| log2 e):
    its truncations then stay far below an ulp of ``_envelope``.  The sum
    stops at the first term below 2^-bits, and the front factor is
    applied once, formed in log space by ``math.lgamma``.  A J beyond the
    double range is an AccuracyError.
    """
    x, y, s = _exact(z)
    bits = 53 + FIXED_GUARD + math.ceil(abs(z) / math.log(2.0))
    # -z^2/2 = (vr + i vi) / 2^(2s + 1), so a term times it over den is
    # one floor division by den 2^(2s + 1)
    vr, vi, scale = y * y - x * x, -2 * x * y, 2 * s + 1
    two_n = round(2.0 * order)
    tr, ti = 1 << bits, 0
    total_re, total_im = tr, ti
    k = 0
    while abs(tr) > 1 or abs(ti) > 1:
        k += 1
        den = k * (two_n + 2 * k) << scale
        tr, ti = (tr * vr - ti * vi) // den, (tr * vi + ti * vr) // den
        total_re += tr
        total_im += ti
    # (z/2)^n and Gamma(n + 1) each leave the double range beyond n = 170,
    # their quotient need not; at a negative half-integer x = n + 1,
    # 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi takes the sign of sin(pi x)
    sign = math.copysign(1.0, math.sin(math.pi * (order + 1.0))) if order < -1.0 else 1.0
    try:
        front = sign * cmath.exp(order * cmath.log(z / 2.0) - math.lgamma(order + 1.0))
        value = _rounded(total_re, total_im, 1 << bits) * front
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise AccuracyError("J_%g(z) leaves the double range" % order, achieved=math.inf)


def _jv_hankel(order: float, z: complex) -> complex:
    """J_order(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - (2n+1)
    pi/4, for a double z with Re z >= 0, by the integer kernel."""
    (form,) = _fixed_forms((order,), abs(z), _cos_sin(z), _exact(z), DOUBLE_BITS)
    return cmath.sqrt(2.0 / (math.pi * z)) * _rounded(*form, 1 << DOUBLE_BITS)


def _chi(l: int) -> float:
    """DLMF 10.17.16's chi(l) = sqrt(pi) Gamma(l/2 + 1) / Gamma(l/2 + 1/2)."""
    return math.sqrt(math.pi) * math.exp(
        math.lgamma(0.5 * l + 1.0) - math.lgamma(0.5 * l + 0.5))


# chi(l) for the term counts of both lanes at the |z| they serve; a longer
# sum computes the rest
_CHI = tuple(_chi(l) for l in range(64))


def _hankel_terms(order: float, az: float, bits: int) -> int:
    """How many terms P and Q of Hankel's expansion take at |z| = az.

    Half-integer orders take all |order| - 1/2 terms: the sums terminate
    there, at the closed form.  Integer orders stop before the first index
    l >= |order| - 1/2 at which the DLMF 10.17(iv) remainder bound
    2 X(l) exp(|order^2 - 1/4| X(1)/|z|) |a_l(order)| / |z|^l
    falls below 2^-(bits + 10); X(l) = ``_chi(l)``, and with it the bound
    covers both Hankel remainders on |ph z| <= pi/2 (10.17.15).  The
    bound is kept as a double times 2^scale, so that it and the tolerance
    compare by exponent at any precision, where 2^-(bits + 10) would
    underflow.  Raises AccuracyError when |z| is too small for the
    precision, i.e. the terms start to grow first, InvalidArgumentError
    for a non-finite |z|.
    """
    if order % 1.0 == 0.5:
        return round(abs(order) - 0.5)
    if not math.isfinite(az):
        raise InvalidArgumentError("Hankel expansion at |z| = %r" % (az,))
    mu = 4.0 * order * order
    front = 2.0 * math.exp(abs(0.25 * mu - 0.25) * 0.5 * math.pi / az)
    size, scale = 1.0, 0  # |a_k(order)| / |z|^k = size 2^scale
    k = 0
    while True:
        k += 1
        step = abs(mu - (2 * k - 1) ** 2) / (8.0 * k * az)
        size, exponent = math.frexp(size * step)
        scale += exponent
        bound = front * (_CHI[k] if k < len(_CHI) else _chi(k)) * size
        if k >= abs(order) - 0.5 and math.frexp(bound)[1] + scale <= -(bits + 10):
            return k - 1
        if step >= 1.0 and k > abs(order) + 0.5:
            # from scale 0 on the bound exceeds J itself: no digit is left
            raise AccuracyError("Hankel expansion cannot reach %d bits at |z| = %g"
                                % (bits, az),
                                achieved=math.ldexp(bound, scale) if scale < 0 else math.inf)


# The Hankel kernel.  Its numbers are Python ints: a complex as an (re, im)
# pair scaled by 2^bits, bits = prec + FIXED_GUARD, where prec is 53 for a
# double argument and the phase's precision beyond it, and z itself
# exactly, as (x + iy)/2^s.  cos z and sin z come in scaled alike: from
# cmath for a double z (``_cos_sin``), from mpmath's integer layer
# (``libmp``) at prec bits otherwise (``_exact_ratio``).  A result is
# rounded once, to a double (``_rounded``) or to prec bits.
# Products are truncated to 2^-bits, so every value carries an absolute
# error of a few 2^-bits against pairs (cos z, sin z; P ~ 1) of size one
# or more.  The smallest form the ratio divides by is its pole threshold,
# 1e-12 ~ 2^-40 of that size, so 40 guard bits keep even it at the
# working precision.  The series (``_jv_series``) runs on the same ints.
FIXED_GUARD = 40
DOUBLE_BITS = 53 + FIXED_GUARD


def _fixed(x: float, bits: int) -> int:
    """A float as an int over 2^bits: exactly, then floored."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den


def _rounded(re: int, im: int, den: int) -> complex:
    """(re + i im)/den as a complex, each part rounded once."""
    return complex(re / den, im / den)


def _exact(z: complex):
    """A complex as ints (x, y, s) with z = (x + iy) / 2^s exactly."""
    s = max(v.as_integer_ratio()[1] for v in (z.real, z.imag)).bit_length() - 1
    return _fixed(z.real, s), _fixed(z.imag, s), s


def _cos_sin(z: complex):
    """cos z and sin z of a double z as pairs scaled by 2^DOUBLE_BITS.  An
    AccuracyError beyond |Im z| = 700, where cos z leaves the double
    range."""
    if abs(z.imag) > 700.0:
        raise AccuracyError("J_n exceeds the double range at Im z = %g" % z.imag,
                            achieved=math.inf)
    return [(_fixed(v.real, DOUBLE_BITS), _fixed(v.imag, DOUBLE_BITS))
            for v in (cmath.cos(z), cmath.sin(z))]


def _fixed_mul(a, b, bits: int):
    """The product of two scaled-int complex pairs."""
    return ((a[0] * b[0] - a[1] * b[1]) >> bits,
            (a[0] * b[1] + a[1] * b[0]) >> bits)


def _fixed_w(x: int, y: int, s: int, bits: int):
    """w = 1/(8z) = conj(z)/(8|z|^2), Hankel's expansion variable, as a
    scaled-int pair, from the exact z = (x + iy) / 2^s, so that a small
    |z| keeps all its digits."""
    norm = 8 * (x * x + y * y)
    return (x << s + bits) // norm, (-y << s + bits) // norm


def _fixed_pq(order: float, w, terms: int, bits: int):
    """P and Q of Hankel's expansion (DLMF 10.17.3) to ``terms`` terms from
    w = 1/(8z).

    Term k of Hankel's sums is (-1)^floor(k/2) c_k w^k with the real
    coefficient c_k = prod_{j<=k} (mu - (2j-1)^2) / k!, mu = 4 order^2,
    whose numerator and denominator are exact ints.  So P = sum_j c_2j t^j
    and Q = w sum_j c_2j+1 t^j in t = -w^2, by Horner's rule: each step
    adds one coefficient rounded once to 2^-bits and multiplies by t, so
    the error stays a few 2^-bits however large c_k grows (a few 2^-bits
    of the last term when |t| > 1, at |z| < 1/8).  With no terms P = 1
    and Q = 0 exactly, and w is not read.
    """
    if not terms:
        return (1 << bits, 0), (0, 0)
    t_re, t_im = _fixed_mul(w, w, bits)
    t_re, t_im = -t_re, -t_im
    sums = []
    for part in _pq_coeffs(round(4.0 * order * order), terms, bits):
        re, im = part[0], 0
        for c in part[1:]:
            re, im = ((re * t_re - im * t_im) >> bits) + c, (re * t_im + im * t_re) >> bits
        sums.append((re, im))
    return sums[0], _fixed_mul(w, sums[1], bits)


@functools.lru_cache(maxsize=256)
def _pq_coeffs(mu: int, terms: int, bits: int):
    """Hankel's c_0 .. c_terms for mu = 4 order^2, each floored to 2^-bits:
    the even (P's) and the odd (Q's), highest first for Horner's rule."""
    coeffs = [1 << bits]
    num = den = 1
    for k in range(1, terms + 1):
        num *= mu - (2 * k - 1) ** 2
        den *= k
        coeffs.append((num << bits) // den)
    return tuple(reversed(coeffs[0::2])), tuple(reversed(coeffs[1::2]))


def _fixed_forms(orders, az: float, cos_sin, parts, bits: int):
    """sqrt(pi z/2) J_n(z) = P_n cos chi_n - Q_n sin chi_n for each n of
    ``orders`` (integer or half-integer), Re z >= 0, as pairs scaled by
    2^bits, from |z| = az, the pair (cos z, sin z) scaled alike and z =
    (x + iy) / 2^s as the ints ``parts`` = (x, y, s).

    The term counts come from ``_hankel_terms`` at bits - FIXED_GUARD, and
    w = 1/(8z) is formed only if some count is not 0; w and cos z, sin z
    serve all orders.  chi_n = z - theta_n with theta_n = (2n + 1) pi/4,
    an odd or even number of eighth turns, so cos theta_n and sin theta_n
    are 0, +-1 or +-1/sqrt(2), each one int.
    """
    counts = [_hankel_terms(n, az, bits - FIXED_GUARD) for n in orders]
    w = _fixed_w(*parts, bits) if any(counts) else None
    (cz_re, cz_im), (sz_re, sz_im) = cos_sin
    eighths = _eighths(bits)
    forms = []
    for n, count in zip(orders, counts):
        p, q = _fixed_pq(n, w, count, bits)
        j = round(2.0 * n + 1.0)
        cos_t, sin_t = eighths[j % 8], eighths[(j - 2) % 8]
        cos_chi = ((cz_re * cos_t + sz_re * sin_t) >> bits,
                   (cz_im * cos_t + sz_im * sin_t) >> bits)
        sin_chi = ((sz_re * cos_t - cz_re * sin_t) >> bits,
                   (sz_im * cos_t - cz_im * sin_t) >> bits)
        p_cos, q_sin = _fixed_mul(p, cos_chi, bits), _fixed_mul(q, sin_chi, bits)
        forms.append((p_cos[0] - q_sin[0], p_cos[1] - q_sin[1]))
    return forms


@functools.lru_cache(maxsize=64)
def _eighths(bits: int):
    """cos(j pi/4), j = 0..7, floored to 2^-bits."""
    one, root_half = 1 << bits, math.isqrt(1 << (2 * bits - 1))
    return (one, root_half, 0, -root_half, -one, -root_half, 0, root_half)


def _envelope(z: complex) -> float:
    """Typical magnitude of J_n at z for the small orders used here."""
    return math.sqrt(2.0 / (math.pi * max(abs(z), 0.3))) * math.exp(abs(z.imag))


def bessel_j_ratio(order: float, z: complex) -> complex:
    """J_{order-1}(z) / J_order(z) in double precision (``_ratio``), at
    every |z|: the argument is exact, and libm reduces its phase.

    Raises PoleError (with a Newton distance estimate) when z sits within
    working tolerance of a zero of J_order, InvalidArgumentError for an
    order that is neither an integer nor a half-integer.
    """
    if not (math.isfinite(order) and cmath.isfinite(z)):
        raise InvalidArgumentError("bessel_j_ratio requires finite inputs")
    if (2.0 * order) % 1.0 != 0.0:
        raise InvalidArgumentError(
            "bessel_j_ratio takes integer and half-integer orders only, got %r"
            % (order,))
    z = complex(z)
    if z == 0.0:
        raise InvalidArgumentError("ratio undefined at z = 0")
    return _ratio(order, z)


def bessel_ratio_mp(order: float, z) -> "mpmath.mpc":
    """J_{order-1}(z)/J_order(z) at mpmath's working precision: the mpmath
    lane's entry.  An mpc is an exact binary number (x + iy)/2^s, so it
    takes ``bessel_ratio_exact``'s integer path at that precision, and the
    exact fraction is rounded once back to an mpc.  InvalidArgumentError
    for a non-finite or zero z.
    """
    z = mpmath.mpc(z)
    if not (mpmath.isfinite(z) and z):
        raise InvalidArgumentError("bessel_ratio_mp requires a finite nonzero argument")
    parts = [(-int(man) if sign else int(man), exp) for sign, man, exp, _ in z._mpc_]
    s = max(0, *(-exp for _, exp in parts))
    prec = mpmath.mp.prec
    re, im, den = _exact_ratio(order, *(man << exp + s for man, exp in parts), s, prec)
    return mpmath.mp.make_mpc(tuple(libmp.from_rational(v, den, prec, "n") for v in (re, im)))


def bessel_ratio_exact(order: float, tau: complex, a: float):
    """J_{order-1}(z)/J_order(z) at the exact product z = tau a of two
    doubles, |z| beyond NATIVE_MAX, as ints (re, im, den): the ratio is
    (re + i im)/den exactly, for the caller to round once.

    z is (x + iy)/2^s on ints, and the ratio comes from ``_exact_ratio``
    at ``phase_digits(|tau a|)`` digits, the precision of the mpmath lane;
    no mpmath object, working precision or MP_LOCK is involved.
    """
    x, y, s = _exact(tau)
    num, den = a.as_integer_ratio()
    return _exact_ratio(order, x * num, y * num, s + den.bit_length() - 1,
                        libmp.dps_to_prec(phase_digits(abs(tau * a))))


def _exact_ratio(order: float, x: int, y: int, s: int, prec: int):
    """``_hankel_ratio`` at z = (x + iy)/2^s with cos z and sin z from
    mpmath's integer layer (``libmp.mpc_cos_sin``) at prec bits, whatever
    |z|: Re z < 0 takes ratio(-z) = -ratio(z)."""
    sign = -1 if x < 0 else 1
    x, y = sign * x, sign * y
    bits = prec + FIXED_GUARD
    cos_sin = libmp.mpc_cos_sin((libmp.from_man_exp(x, -s), libmp.from_man_exp(y, -s)),
                                prec, "n")
    re, im, den = _hankel_ratio(
        order, (x, y, s),
        [(libmp.to_fixed(re, bits), libmp.to_fixed(im, bits)) for re, im in cos_sin], prec)
    return sign * re, sign * im, den


def _ratio(order: float, z: complex) -> complex:
    """J_{order-1}(z)/J_order(z) in double precision.

    Where Hankel's expansion serves both orders (``_hankel_serves``),
    ``_hankel_ratio`` at 53 bits, ratio(-z) = -ratio(z) for Re z < 0,
    rounded once.  Otherwise the quotient of two ``_jv`` values, with
    PoleError (``_pole_error``) when |J_order| < 1e-12 ``_envelope(z)``.
    """
    if not all(_hankel_serves(n, abs(z)) for n in (order, order - 1.0)):
        prev, cur = _jv(order - 1.0, z), _jv(order, z)
        if abs(cur) < 1e-12 * _envelope(z):
            raise _pole_error(order, z, prev, cur)
        return prev / cur
    if z.real < 0:
        return -_ratio(order, -z)
    return _rounded(*_hankel_ratio(order, _exact(z), _cos_sin(z), 53))


def _hankel_ratio(order: float, parts, cos_sin, prec: int):
    """J_{order-1}(z)/J_order(z) from the two Hankel forms, in which
    sqrt(2/(pi z)) cancels, as the exact fraction (re, im, den) =
    (prev conj(cur), |cur|^2) of ints, at z = (x + iy)/2^s with Re z >= 0
    as the ints ``parts`` = (x, y, s), and (cos z, sin z) as pairs scaled
    by 2^(prec + FIXED_GUARD).

    The one pole rule of every Hankel ratio: PoleError when |J_order| <
    1e-12 e^{|Im z|} at prec bits (``_near_pole``), with the Newton
    distance formed on the ints (``_exact_pole_error``).
    """
    x, y, s = parts
    bits = prec + FIXED_GUARD
    cur, prev = _fixed_forms((order, order - 1.0), abs(complex(x / (1 << s), y / (1 << s))),
                             cos_sin, parts, bits)
    if _near_pole(cur, y, s, prec):
        raise _exact_pole_error(order, x, y, s, prev, cur)
    return (prev[0] * cur[0] + prev[1] * cur[1], prev[1] * cur[0] - prev[0] * cur[1],
            cur[0] * cur[0] + cur[1] * cur[1])


def _near_pole(cur, y: int, s: int, prec: int) -> bool:
    """Whether |J_order|, the form ``cur`` over 2^(prec + FIXED_GUARD),
    lies below its threshold 1e-12 e^{|Im z|}, Im z = y/2^s.  Decided on
    the float log of the ints, and within a factor 4 of the threshold by
    the exact test's rounding in libmp at prec bits."""
    bits = prec + FIXED_GUARD
    norm = cur[0] * cur[0] + cur[1] * cur[1]
    if not norm:
        return True
    gap = 0.5 * math.log(norm) - bits * math.log(2.0) - abs(y / (1 << s)) - math.log(1e-12)
    if abs(gap) >= math.log(4.0):
        return gap < 0.0
    size = libmp.mpc_abs(tuple(libmp.from_rational(v, 1 << bits, prec, "n") for v in cur),
                         prec, "n")
    limit = libmp.mpf_exp(libmp.from_man_exp(abs(y), -s), prec, "n")
    return libmp.mpf_lt(size, libmp.mpf_mul(libmp.from_float(1e-12), limit, prec, "n"))


def _pole_error(order: float, z, prev, cur) -> PoleError:
    """The PoleError for z within tolerance of a zero of J_order, with the
    Newton distance |J_order/J_order'|, J_order' = J_{order-1} - (order/z)
    J_order, from the pair (prev, cur) ~ (J_{order-1}, J_order)."""
    slope = prev - (order / z) * cur
    return PoleError("z=%s lies within tolerance of a zero of J_%g" % (z, order),
                     distance=float(abs(cur / slope)) if slope != 0 else 0.0)


def _exact_pole_error(order: float, x: int, y: int, s: int, prev, cur) -> PoleError:
    """``_pole_error`` at z = (x + iy)/2^s from the scaled-int forms: with
    slope = 2 (x + iy) prev - 2 order 2^s cur, J_order/J_order' = 2 (x + iy)
    cur / slope exactly, and its modulus is rounded once."""
    two_n = round(2.0 * order)
    slope = (2 * (x * prev[0] - y * prev[1]) - (two_n * cur[0] << s),
             2 * (x * prev[1] + y * prev[0]) - (two_n * cur[1] << s))
    num = 4 * (x * x + y * y) * (cur[0] * cur[0] + cur[1] * cur[1])
    den = slope[0] * slope[0] + slope[1] * slope[1]
    distance = 0.0
    if den:
        # |J/J'| = sqrt(num/den), floored to well below an ulp, rounded once
        shift = max(0, (den.bit_length() - num.bit_length()) // 2 + 128)
        distance = math.isqrt((num << 2 * shift) // den) / (1 << shift)
    z = complex(x / (1 << s), y / (1 << s))
    return PoleError("z=%s lies within tolerance of a zero of J_%g" % (z, order),
                     distance=distance)
