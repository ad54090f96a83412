"""Bessel functions J_n of the first kind, integer and half-integer order,
complex argument.

Evaluation strategy, chosen by |z| after Re z < 0 is rotated into the
right half-plane:

  * ``|z| <= 12``      ascending power series, accumulated in extended
                       (80-bit) precision to absorb the alternating-series
                       cancellation,
  * ``12 < |z| < 30``  integer orders: backward (Miller) recurrence
                       normalised by the ladder sum 1 = J_0 + 2 J_2 + ...;
                       half-integer orders: Hankel's expansion, which
                       terminates for them and so is their closed form
                       (from |z| = order - 1/2 on, else the series),
  * ``|z| >= 30``      Hankel's large-argument expansion, summed until its
                       DLMF 10.17(iv) remainder bound falls below the
                       working precision.

Other orders raise InvalidArgumentError: a bump in dimension d only asks
for orders d/2 - 1 and d/2 - 2.

Beyond ``|z| ~ 3e4`` the rounding of an argument formed in double
precision (z = tau * a) moves its phase by more than the accuracy this
library promises, so such arguments are delegated to arbitrary-precision
arithmetic with the working precision scaled to the phase.  That rule is
the package's one precision lane (``lane``): every solver whose phase can
pass 3e4 picks its arithmetic through it.

Hankel's expansion has one evaluator for both arithmetics, an integer
kernel (``_fixed_forms``).  The ratio J_{n-1}(z)/J_n(z) (``_ratio``) is
the quotient of two of its forms wherever Hankel's expansion serves, and
always in the mpmath lane; else the quotient of two J values.  Near a
zero of the denominator it raises PoleError, by one rule for all.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import AccuracyError, InvalidArgumentError, PoleError

SERIES_MAX = 12.0
ASYMPT_MIN = 30.0
# largest phase (here |z|) evaluated in double precision; above this the
# phase error eps*|z| of a rounded argument would exceed ~1e-11
NATIVE_MAX = 3.0e4

# mpmath's working precision is process-global; every extended-precision
# block in the package takes this (reentrant) lock so the native double
# lane stays freely concurrent
MP_LOCK = threading.RLock()

_EPS_LD = float(np.finfo(np.longdouble).eps)
_TINY_LD = np.clongdouble(1e-280)


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


@contextlib.contextmanager
def lane(scale: float):
    """Arithmetic for a computation whose phase reaches ``scale`` radians.

    Up to NATIVE_MAX this yields the double-precision ops.  Beyond it
    yields the mpmath ops, holding MP_LOCK with the working precision at
    30 + log10(scale) digits, so that the eps*scale phase error of
    argument reduction stays far below every tolerance.  Both carry
    ``sqrt``, ``exp``, ``lift`` (into the lane), ``bessel_ratio`` and the
    flag ``mp``; ``complex`` takes a lane number back to double.
    """
    if scale <= NATIVE_MAX:
        yield _Native
        return
    with MP_LOCK, mpmath.workdps(30 + int(math.log10(scale + 1.0))):
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


def _recip_gamma(x: float) -> float:
    """1/Gamma(x) for x > 0 or x a negative half-integer."""
    if x > 0.0:
        return 1.0 / math.gamma(x)
    # reflection: 1/Gamma(x) = Gamma(1-x) * sin(pi x) / pi
    return math.gamma(1.0 - x) * math.sin(math.pi * x) / math.pi


def bessel_j(query: BesselQuery) -> complex:
    """Evaluate J_order(z) with relative error <= query.accuracy_target.

    Raises AccuracyError (carrying the achieved estimate) if the active
    expansion cannot reach the target, InvalidArgumentError on non-finite
    input or an order that is neither an integer nor a half-integer.
    """
    return _jv(query.order, complex(query.argument), query.accuracy_target)


def _jv(order: float, z: complex, target: float = 1e-12) -> complex:
    """J_order(z) to a relative tolerance ``target``.

    The branch is chosen by |z| as the module docstring describes; Re z < 0
    is first rotated into the right half-plane, where the large-argument
    expansion keeps full accuracy.  In the mpmath lane ``target`` is not
    consulted.
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

    hankel = _hankel_serves(order, az)
    if az <= SERIES_MAX or (order % 1.0 == 0.5 and not hankel):
        return _jv_series(order, z, target)
    if z.real < 0.0:
        # J_n(z e^{+-i pi}) = e^{+-i n pi} J_n(z)
        phase = cmath.exp(1j * math.pi * order) if z.imag >= 0.0 \
            else cmath.exp(-1j * math.pi * order)
        return phase * _jv(order, -z, target)
    if hankel:
        with lane(az) as ops:
            return complex(_jv_hankel(order, ops.lift(z), target))
    return _jv_miller(order, z, target)


def _hankel_serves(order: float, az: float) -> bool:
    """Whether Hankel's expansion serves order ``order`` at |z| = az in
    double precision: an integer order from ASYMPT_MIN on; a half-integer
    order, whose sum terminates, from |z| = order - 1/2 on, below which
    its terms grow and cancel (ten digits at order 3/2, |z| = 1e-5)."""
    return az >= (order - 0.5 if order % 1.0 == 0.5 else ASYMPT_MIN)


def _jv_series(order: float, z: complex, target: float) -> complex:
    """Ascending series, extended-precision accumulation.

    J_n(z) = (z/2)^n / Gamma(n+1) * sum_k prod_{i<=k} [-(z^2/4)/(i(n+i))].
    The scale factor is applied once at the end, so its rounding is not
    amplified by the alternating sum.
    """
    zl = np.clongdouble(z.real) + 1j * np.clongdouble(z.imag)
    q = -(zl * zl) / 4.0
    term = np.clongdouble(1.0) + 0j
    total = term
    max_abs = float(abs(term))
    converged = False
    for k in range(1, 500):
        term = term * q / np.clongdouble(k * (order + k))
        total = total + term
        max_abs = max(max_abs, float(abs(term)))
        if abs(term) <= 0.1 * _EPS_LD * abs(total):
            converged = True
            break
    if not converged:
        raise AccuracyError("bessel series did not converge", achieved=float(abs(term)))

    scale_mag = _recip_gamma(order + 1.0)
    front = cmath.exp(order * cmath.log(z / 2.0)) * scale_mag
    # measure cancellation against the natural magnitude of J as well:
    # right at a zero the value-relative error is unbounded for any fixed
    # precision, but the absolute result is still good to eps * max term
    floor = _envelope(z) / max(abs(front), 1e-300)
    est = _EPS_LD * max_abs / max(float(abs(total)), floor, 1e-300) + 4e-16
    if est > target:
        raise AccuracyError("bessel series cancellation too severe", achieved=est)
    return complex(total) * front


def _jv_hankel(order: float, z, target: float):
    """J_order(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - (2n+1)
    pi/4, for Re z >= 0, by the integer kernel in the arithmetic of z.

    A complex result carries the rounding of its double inputs, a floor of
    4e-16, so a smaller ``target`` is an AccuracyError; for an mpmath z
    ``target`` is not consulted.
    """
    native = isinstance(z, complex)
    if native and target < 4e-16:
        raise AccuracyError("asymptotic expansion below target accuracy",
                            achieved=4e-16)
    bits = _bits(z)
    (form,) = _fixed_forms((order,), z, bits)
    root = cmath.sqrt(2.0 / (math.pi * z)) if native else mpmath.sqrt(2 / (mpmath.pi * z))
    return root * _rounded(*form, 1 << bits, z)


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
    covers both Hankel remainders on |ph z| <= pi/2 (10.17.15).  Raises
    AccuracyError when |z| is too small for the precision, i.e. the terms
    start to grow first.
    """
    if order % 1.0 == 0.5:
        return round(abs(order) - 0.5)
    mu = 4.0 * order * order
    tol = 2.0 ** -(bits + 10)
    front = 2.0 * math.exp(abs(0.25 * mu - 0.25) * 0.5 * math.pi / az)
    size = 1.0  # |a_k(order)| / |z|^k
    k = 0
    while True:
        k += 1
        step = abs(mu - (2 * k - 1) ** 2) / (8.0 * k * az)
        size *= step
        bound = front * (_CHI[k] if k < len(_CHI) else _chi(k)) * size
        if k >= abs(order) - 0.5 and bound < tol:
            return k - 1
        if step >= 1.0 and k > abs(order) + 0.5:
            raise AccuracyError("Hankel expansion cannot reach %d bits at |z| = %g"
                                % (bits, az), achieved=bound)


# The Bessel kernel of both lanes.  After cos z and sin z, whose argument
# reduction needs the arithmetic of z (cmath, or mpmath.cos_sin), Hankel's
# forms run on Python ints holding a complex number as an (re, im) pair
# scaled by 2^bits, bits = (53 or mp.prec) + FIXED_GUARD (``_bits``), and
# the result is rounded once back into that arithmetic (``_rounded``).
# Products are truncated to 2^-bits, so every value carries an absolute
# error of a few 2^-bits against pairs (cos z, sin z; P ~ 1) of size one
# or more.  The smallest form the ratio divides by is its pole threshold,
# 1e-12 ~ 2^-40 of that size, so 40 guard bits keep even it at the
# working precision.
FIXED_GUARD = 40


def _bits(z) -> int:
    """The kernel's scale exponent for z: a complex never reads mpmath's
    precision, so the double lane stays lock-free."""
    return (53 if isinstance(z, complex) else mpmath.mp.prec) + FIXED_GUARD


def _fixed(x, bits: int) -> int:
    """A float (exactly, then floored) or an mpmath real as an int over 2^bits."""
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        return (num << bits) // den
    return mpmath.libmp.to_fixed(x._mpf_, bits)


def _rounded(re: int, im: int, den: int, z):
    """(re + i im)/den in the arithmetic of z, each part rounded once: by
    int true division for a complex, to the working precision for an
    mpmath number."""
    if isinstance(z, complex):
        return complex(re / den, im / den)
    prec = mpmath.mp.prec
    return mpmath.mp.make_mpc((mpmath.libmp.from_rational(re, den, prec, "n"),
                               mpmath.libmp.from_rational(im, den, prec, "n")))


def _fixed_mul(a, b, bits: int):
    """The product of two scaled-int complex pairs."""
    return ((a[0] * b[0] - a[1] * b[1]) >> bits,
            (a[0] * b[1] + a[1] * b[0]) >> bits)


def _fixed_w(z, bits: int):
    """w = 1/(8z) = conj(z)/(8|z|^2), Hankel's expansion variable, as a
    scaled-int pair, from z scaled by 2^s: an mpmath z at s = bits, a
    complex exactly, so that a small |z| keeps all its digits."""
    s = bits
    if isinstance(z, complex):
        s = max(v.as_integer_ratio()[1] for v in (z.real, z.imag)).bit_length() - 1
    x, y = _fixed(z.real, s), _fixed(z.imag, s)
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
    of the last term when |t| > 1, at |z| < 1/8).
    """
    mu = round(4.0 * order * order)
    coeffs = [1 << bits]
    num = den = 1
    for k in range(1, terms + 1):
        num *= mu - (2 * k - 1) ** 2
        den *= k
        coeffs.append((num << bits) // den)
    t = _fixed_mul(w, w, bits)
    t = (-t[0], -t[1])
    sums = []
    for part in (coeffs[0::2], coeffs[1::2]):
        acc = (0, 0)
        for c in reversed(part):
            acc = _fixed_mul(acc, t, bits)
            acc = (acc[0] + c, acc[1])
        sums.append(acc)
    return sums[0], _fixed_mul(w, sums[1], bits)


def _fixed_forms(orders, z, bits: int):
    """sqrt(pi z/2) J_n(z) = P_n cos chi_n - Q_n sin chi_n for each n of
    ``orders`` (integer or half-integer), Re z >= 0, as pairs scaled by
    2^bits, bits = ``_bits(z)``.

    The term counts come from ``_hankel_terms`` first, so an AccuracyError
    costs no work; w and cos z, sin z serve all orders.  chi_n = z -
    theta_n with theta_n = (2n + 1) pi/4, an odd or even number of eighth
    turns, so cos theta_n and sin theta_n are 0, +-1 or +-1/sqrt(2), each
    one int.  A complex beyond |Im z| = 700 is an AccuracyError: its cos z
    leaves the double range.
    """
    native = isinstance(z, complex)
    if native and abs(z.imag) > 700.0:
        raise AccuracyError("J_n exceeds the double range at Im z = %g" % z.imag,
                            achieved=math.inf)
    az = abs(complex(z))
    counts = [_hankel_terms(n, az, bits - FIXED_GUARD) for n in orders]
    w = _fixed_w(z, bits)
    cos_sin = (cmath.cos(z), cmath.sin(z)) if native else mpmath.cos_sin(z)
    (cz_re, cz_im), (sz_re, sz_im) = [(_fixed(v.real, bits), _fixed(v.imag, bits))
                                      for v in cos_sin]
    one, root_half = 1 << bits, math.isqrt(1 << (2 * bits - 1))
    # cos(j pi/4), j = 0..7
    eighths = (one, root_half, 0, -root_half, -one, -root_half, 0, root_half)
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


def _miller_ladder(order: float, z: complex, m_start: int):
    """One backward-recurrence pass; returns the normalised J_order for an
    integer order >= 0.

    Recurses J_{n-1} = (2n / z) J_n - J_{n+1} down from order ``m_start``
    and rescales with the ladder sum 1 = J_0 + 2 J_2 + 2 J_4 + ...
    """
    zl = np.clongdouble(z.real) + 1j * np.clongdouble(z.imag)
    vals = np.zeros(m_start + 2, dtype=np.clongdouble)
    vals[m_start] = _TINY_LD
    for j in range(m_start, 0, -1):
        vals[j - 1] = (2.0 * j / zl) * vals[j] - vals[j + 1]
    s = vals[0].copy()
    for k in range(2, m_start + 1, 2):
        s = s + 2.0 * vals[k]
    return complex(vals[int(order)] * ((1 + 0j) / s))


def _jv_miller(order: float, z: complex, target: float) -> complex:
    m_start = int(max(abs(z), order)) + 40
    v1 = _miller_ladder(order, z, m_start)
    v2 = _miller_ladder(order, z, m_start + 12)
    est = abs(v1 - v2) / max(abs(v2), _envelope(z), 1e-300) + 4e-16
    if est > target:
        raise AccuracyError("backward recurrence below target accuracy", achieved=est)
    return v2


def _envelope(z: complex) -> float:
    """Typical magnitude of J_n at z for the small orders used here."""
    return math.sqrt(2.0 / (math.pi * max(abs(z), 0.3))) * math.exp(abs(z.imag))


def bessel_j_ratio(order: float, z: complex) -> complex:
    """J_{order-1}(z) / J_order(z) in double precision (``_ratio``);
    beyond NATIVE_MAX, ``bessel_ratio_mp`` at the lane's precision.

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
    az = abs(z)
    if az == 0.0:
        raise InvalidArgumentError("ratio undefined at z = 0")
    with lane(az) as ops:
        if ops.mp:
            return complex(bessel_ratio_mp(order, mpmath.mpc(z)))
    return _ratio(order, z)


def bessel_ratio_mp(order: float, z) -> "mpmath.mpc":
    """``_ratio`` at the caller's mpmath precision: the mpmath lane's entry."""
    return _ratio(order, z)


def _ratio(order: float, z):
    """J_{order-1}(z)/J_order(z) in the arithmetic of z.

    Where Hankel's expansion serves (``_hankel_serves``), and always for an
    mpmath z, the two Hankel forms from the integer kernel, in which
    sqrt(2/(pi z)) cancels: ratio(-z) = -ratio(z) for Re z < 0, then prev
    conj(cur)/|cur|^2, an exact fraction of ints rounded once.  Otherwise
    the quotient of two ``_jv`` values.  One pole rule: PoleError with the
    Newton distance |J_order/J_order'| when |J_order| < 1e-12 of its
    envelope, e^{|Im z|} for the forms and ``_envelope`` for ``_jv``.  The
    forms' test is decided on the float log of the ints, and only within a
    factor 4 of the threshold on the rounded form, as an exact test would.
    """
    if isinstance(z, complex) and not _hankel_serves(order, abs(z)):
        prev, cur = _jv(order - 1.0, z, 1e-8), _jv(order, z, 1e-8)
        if abs(cur) < 1e-12 * _envelope(z):
            raise _pole_error(order, z, prev, cur)
        return prev / cur
    if z.real < 0:
        return -_ratio(order, -z)
    bits = _bits(z)
    cur, prev = _fixed_forms((order, order - 1.0), z, bits)
    norm = cur[0] * cur[0] + cur[1] * cur[1]
    # log of |J_order| over its pole threshold 1e-12 e^{|Im z|}
    gap = -math.inf
    if norm:
        gap = (0.5 * math.log(norm) - bits * math.log(2.0)
               - abs(float(z.imag)) - math.log(1e-12))
    near = gap < 0.0
    if abs(gap) < math.log(4.0):
        exp = math.exp if isinstance(z, complex) else mpmath.exp
        near = abs(_rounded(*cur, 1 << bits, z)) < 1e-12 * exp(abs(z.imag))
    if near:
        raise _pole_error(order, z, _rounded(*prev, 1 << bits, z),
                          _rounded(*cur, 1 << bits, z))
    return _rounded(prev[0] * cur[0] + prev[1] * cur[1],
                    prev[1] * cur[0] - prev[0] * cur[1], norm, z)


def _pole_error(order: float, z, prev, cur) -> PoleError:
    """The PoleError for z within tolerance of a zero of J_order, with the
    Newton distance |J_order/J_order'|, J_order' = J_{order-1} - (order/z)
    J_order, from the pair (prev, cur) ~ (J_{order-1}, J_order)."""
    slope = prev - (order / z) * cur
    return PoleError("z=%s lies within tolerance of a zero of J_%g" % (z, order),
                     distance=float(abs(cur / slope)) if slope != 0 else 0.0)
