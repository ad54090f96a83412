"""Bessel functions J_n of the first kind, integer and half-integer order,
complex argument.

J has two expansions, both summed on Python ints scaled by 2^bits and
rounded once: Hankel's (DLMF 10.17.3) wherever its terms fall until its
remainder bound meets the precision (``_hankel_counts``, the one routing
rule: at 53 bits from |z| = 22.2-22.6 for orders 0 to 3, from |z| =
(n^2 - 1/4)/2 for larger and half-integer orders), and elsewhere, in
double precision up to |z| = SERIES_MAX, the ascending series (DLMF
10.2.2).  Every entry first checks for a finite argument and an integer
or half-integer order (``_check``); a bump in dimension d only asks for
orders d/2 - 1 and d/2 - 2.

A double argument is exact, and libm reduces its cos and sin to below an
ulp at any size, so ``bessel_j`` and ``bessel_j_ratio`` run in double
precision at every |z|.  A phase formed from a product beyond ``|z| ~
3e4`` (NATIVE_MAX) would lose more than the accuracy this library
promises to its rounding, so beyond it the ratio runs on exact ints at
the phase's precision (``phase_digits``, ``solve_bits``), its exact
fraction left to the caller: at a bump's z = tau * a, a product of two
doubles (``bessel_ratio_exact``), or at a solve's exact z
(``bessel_ratio_mp``).  cos z and sin z then come from mpmath's integer
layer (``libmp``); no mpmath number or working precision is involved.

Every ratio J_{n-1}(z)/J_n(z) is the quotient of two forms sqrt(pi z/2) J
on ints (``_ratio_fraction``), from Hankel's integer kernel
(``_fixed_forms``) or the series, with one reflection and one pole rule.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from mpmath import libmp

from .errors import AccuracyError, InvalidArgumentError, PoleError

# largest phase a solve forms in double precision; above this the phase
# error eps*scale of a rounded product would exceed ~1e-11
NATIVE_MAX = 3.0e4
# largest |z| the ascending series takes: a value costs ~|z|^2, 0.16 s at 4096
SERIES_MAX = 4096.0

# libmp keeps pi and log 2 at the highest precision asked for so far and
# grows them by two unlocked writes, which a concurrent reader can see half
# done; so both are filled here once beyond any precision the package asks
# for: phase_digits of |z| < 2^1024, plus the bits of the reduction mod pi/2.
libmp.pi_fixed(4096)
libmp.ln2_fixed(4096)


def upper_sqrt(w: complex) -> complex:
    """The square root of w in the closed upper half-plane (Im >= 0, and
    Re >= 0 on the real axis): the wavenumber of a decaying solution."""
    s = cmath.sqrt(w)
    if s.imag < 0.0 or (s.imag == 0.0 and s.real < 0.0):
        s = -s
    return s


def phase_digits(scale: float) -> int:
    """Decimal digits for a computation beyond NATIVE_MAX whose phase
    reaches ``scale`` radians: 30 + floor(log10(scale + 1)), so that a
    phase formed from a product (tau * a, kappa * L) keeps an error far
    below every tolerance."""
    return 30 + int(math.log10(scale + 1.0))


def solve_bits(scale: float) -> int | None:
    """The bits of a solve whose phase reaches ``scale`` radians: None (in
    double) up to NATIVE_MAX, else ``phase_digits`` plus FIXED_GUARD."""
    if scale <= NATIVE_MAX:
        return None
    return libmp.dps_to_prec(phase_digits(scale)) + FIXED_GUARD


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
        _check(self.order, complex(self.argument))


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


def _check(order: float, z: complex) -> None:
    """The one input check of every entry: a finite argument and a finite
    integer or half-integer order.  Both expansions read 2 order as an
    int, so any other order would silently give another order's value."""
    if not (math.isfinite(order) and cmath.isfinite(z)):
        raise InvalidArgumentError("Bessel functions require finite order and argument")
    if (2.0 * order) % 1.0 != 0.0:
        raise InvalidArgumentError(
            "Bessel functions take integer and half-integer orders only, got %r" % (order,))


def _jv(order: float, z: complex, target: float = 1e-12) -> complex:
    """J_order(z) to a relative tolerance ``target``: Hankel's kernel where
    ``_hankel_counts`` serves, the series elsewhere.  Either result carries
    the rounding of its double inputs, a floor of 4e-16 of ``_envelope``,
    so a smaller ``target`` is an AccuracyError.
    """
    _check(order, z)
    if z == 0.0:
        if order < 0.0 and order % 1.0:
            raise InvalidArgumentError(
                "J_n(0) diverges for negative half-integer order %r" % (order,))
        return complex(order == 0.0)  # J_0(0) = 1, J_n(0) = 0
    if target < 4e-16:
        raise AccuracyError("J_n below the rounding floor of its double inputs",
                            achieved=4e-16)
    _double_range(z)
    try:
        return _jv_hankel(order, z)
    except AccuracyError:
        return _jv_series(order, z)


def _jv_series(order: float, z: complex) -> complex:
    """The ascending series (DLMF 10.2.2) on scaled ints.

    J_n(z) = (z/2)^n / Gamma(n+1) * S, with S = sum_k t_k, t_0 = 1 and
    t_k = t_(k-1) (-z^2/2) / (k (2n + 2k)), each term floored once from
    the exact z.  The terms reach e^|z| before they cancel to J ~
    e^|Im z|, so S runs at bits = 53 + FIXED_GUARD + ceil(|z| log2 e):
    its truncations then stay far below an ulp of ``_envelope``.  The sum
    stops at the first term below 2^-bits.  (z/2)^m, m = floor(n), and
    Gamma(n + 1), over sqrt(pi) at a half-integer n, are fractions of ints,
    so J is rounded once (then times sqrt(z/2)/sqrt(pi) at a half-integer
    n).  AccuracyError beyond SERIES_MAX or the double range.
    """
    if abs(z) > SERIES_MAX:
        raise AccuracyError("J_%g(z) at |z| = %g is beyond the series" % (order, abs(z)),
                            achieved=math.inf)
    two_n, sign = round(2.0 * order), 1
    if two_n < 0 and two_n % 2 == 0:  # J_{-n} = (-1)^n J_n
        two_n, sign = -two_n, (-1) ** (-two_n // 2)
    x, y, s = _exact(z)
    bits = 53 + FIXED_GUARD + math.ceil(abs(z) / math.log(2.0))
    # -z^2/2 = (vr + i vi) / 2^(2s + 1), so a term times it over den is
    # one floor division by den 2^(2s + 1)
    vr, vi, scale = y * y - x * x, -2 * x * y, 2 * s + 1
    tr, ti = 1 << bits, 0
    total_re, total_im = tr, ti
    k = 0
    while abs(tr) > 1 or abs(ti) > 1:
        k += 1
        den = k * (two_n + 2 * k) << scale
        tr, ti = (tr * vr - ti * vi) // den, (tr * vi + ti * vr) // den
        total_re += tr
        total_im += ti
    # Gamma(n + 1) = g_num / g_den from Gamma(1) = 1 or Gamma(1/2) = sqrt(pi)
    # by Gamma(x + 1) = x Gamma(x), x = t/2, down from x = n or up from n + 1
    g_num, g_den = sign, 1
    for t in range(two_n, 0, -2):
        g_num, g_den = g_num * t, g_den * 2
    for t in range(two_n + 2, 0, 2):
        g_num, g_den = g_num * 2, g_den * t
    # (z/2)^m = ((x + iy) / 2^(s+1))^m, through conj(z) / |z|^2 when m < 0
    m = two_n // 2
    pw_re, pw_im, cy = 1, 0, y if m >= 0 else -y
    for _ in range(abs(m)):
        pw_re, pw_im = pw_re * x - pw_im * cy, pw_re * cy + pw_im * x
    num = g_den << (s + 1) * max(-m, 0)
    den = g_num * (x * x + y * y) ** max(-m, 0) << bits + (s + 1) * max(m, 0)
    try:
        value = complex((total_re * pw_re - total_im * pw_im) * num / den,
                        (total_re * pw_im + total_im * pw_re) * num / den)
        if two_n % 2:
            value *= cmath.sqrt(0.5 * z) / math.sqrt(math.pi)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise AccuracyError("J_%g(z) leaves the double range" % order, achieved=math.inf)


def _jv_hankel(order: float, z: complex) -> complex:
    """J_order(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - (2n+1)
    pi/4, for a double z by the integer kernel, Re z < 0 first rotated
    into the right half-plane, where the remainder bound holds.
    AccuracyError where ``_hankel_counts`` refuses the sum."""
    if z.real < 0.0:
        # J_n(z e^{+-i pi}) = e^{+-i n pi} J_n(z)
        turn = 1j if z.imag >= 0.0 else -1j
        return cmath.exp(turn * math.pi * order) * _jv_hankel(order, -z)
    counts = _hankel_counts((order,), abs(z), 53)
    (form,) = _fixed_forms((order,), counts, _cos_sin(z), _exact(z), DOUBLE_BITS)
    return cmath.sqrt(2.0 / (math.pi * z)) * _rounded(*form, 1 << DOUBLE_BITS)


def _chi(l: int) -> float:
    """DLMF 10.17.16's chi(l) = sqrt(pi) Gamma(l/2 + 1) / Gamma(l/2 + 1/2)."""
    return math.sqrt(math.pi) * math.exp(
        math.lgamma(0.5 * l + 1.0) - math.lgamma(0.5 * l + 0.5))


# chi(l) for the term counts of both lanes at the |z| they serve; a longer
# sum computes the rest
_CHI = tuple(_chi(l) for l in range(64))


def _hankel_terms(order: float, az: float, bits: int) -> int:
    """How many terms P and Q of Hankel's expansion take at |z| = az: the
    one judge of where the expansion serves.

    The terms must fall: a term larger than the one before ends the sum
    with AccuracyError, as it costs its size in cancellation against cos z
    and sin z (forced on, a ratio of half-integer orders misses 1e-14 once
    its largest term passes 2, 4e-13 past 8).  Half-integer orders take
    all |order| - 1/2 terms, where the sum terminates.  Integer orders stop
    before the first index l >= |order| - 1/2 at which the DLMF 10.17(iv)
    bound
    2 X(l) exp(|order^2 - 1/4| X(1)/|z|) |a_l(order)| / |z|^l
    falls below 2^-(bits + 10); X(l) = ``_chi(l)``, and with it the bound
    covers both Hankel remainders on |ph z| <= pi/2 (10.17.15).  The
    bound is kept as a double times 2^scale, so that it and the tolerance
    compare by exponent at any precision, where 2^-(bits + 10) would
    underflow.  InvalidArgumentError for a non-finite |z|.
    """
    if not math.isfinite(az):
        raise InvalidArgumentError("Hankel expansion at |z| = %r" % (az,))
    mu = 4.0 * order * order
    # exp's argument is pi times the first term, so it stays below pi
    # wherever the sum goes on; the cap keeps it finite until the first
    # term, grown, ends the sum
    front = 2.0 * math.exp(min(abs(0.25 * mu - 0.25) * 0.5 * math.pi / az, 700.0))
    size, scale = 1.0, 0  # |a_k(order)| / |z|^k = size 2^scale
    k = 0
    while True:
        k += 1
        step = abs(mu - (2 * k - 1) ** 2) / (8.0 * k * az)
        if not step:
            return k - 1  # a half-integer order's sum ends here
        size, exponent = math.frexp(size * step)
        scale += exponent
        bound = front * (_CHI[k] if k < len(_CHI) else _chi(k)) * size
        if (order % 1.0 == 0.0 and k >= abs(order) - 0.5
                and math.frexp(bound)[1] + scale <= -(bits + 10)):
            return k - 1
        if step > 1.0:
            raise AccuracyError("Hankel's terms grow before they reach %d bits at |z| = %g"
                                % (bits, az),
                                achieved=math.ldexp(bound, scale) if scale < 0 else math.inf)


def _hankel_counts(orders, az: float, prec: int):
    """The one routing rule: Hankel's term counts for ``orders`` at |z| = az
    and prec bits, or ``_hankel_terms``' AccuracyError where one does not
    serve, on which the double lane takes the series."""
    return [_hankel_terms(n, az, prec) for n in orders]


# The Hankel kernel.  Its numbers are Python ints: a complex as an (re, im)
# pair scaled by 2^bits, bits = prec + FIXED_GUARD, where prec is 53 for a
# double argument and the phase's precision beyond it, and z itself
# exactly, as (x + iy)/2^s.  cos z and sin z come in scaled alike: from
# cmath for a double z (``_cos_sin``), from mpmath's integer layer
# (``libmp``) at prec bits otherwise (``_exact_forms``).  A result is
# rounded once to a double (``_rounded``), or left exact for the caller.
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


def _exact(*terms: complex):
    """A complex, or the sum of several, as ints (x, y, s) with the sum =
    (x + iy) / 2^s exactly."""
    s = max(v.as_integer_ratio()[1] for z in terms for v in (z.real, z.imag)).bit_length() - 1
    return sum(_fixed(z.real, s) for z in terms), sum(_fixed(z.imag, s) for z in terms), s


def _abs_rounded(re: int, im: int, den: int) -> float:
    """|re + i im| / den, den > 0, rounded once: the integer square root
    keeps 64 bits or more, and a sticky bit marks it inexact."""
    norm = re * re + im * im
    shift = max(0, den.bit_length() - norm.bit_length() // 2 + 64)
    q, r = divmod(norm << 2 * shift, den * den)
    root = math.isqrt(q)
    return math.ldexp(float(2 * root + bool(r or root * root != q)), -shift - 1)


def _dist_squares(k1, k2) -> float:
    """|k1^2 - k2^2| of two wavenumbers, each a complex or a solve's exact
    (seed, offset) pair, as (k1 - k2)(k1 + k2) on exact ints, rounded once."""
    p1, p2 = ((k,) if isinstance(k, complex) else tuple(k) for k in (k1, k2))
    dx, dy, s = _exact(*p1, *(-v for v in p2))
    sx, sy, _ = _exact(*p1, *p2)
    return _abs_rounded(dx * sx - dy * sy, dx * sy + dy * sx, 1 << 2 * s)


def _double_range(z: complex) -> None:
    """The double lane's range check on either route: AccuracyError beyond
    |Im z| = 700, where cos z and J of small orders leave the double range."""
    if abs(z.imag) > 700.0:
        raise AccuracyError("J_n exceeds the double range at Im z = %g" % z.imag,
                            achieved=math.inf)


def _cos_sin(z: complex):
    """cos z and sin z of a double z, |Im z| <= 700, scaled by 2^DOUBLE_BITS."""
    return [_fixed_pair(cmath.cos(z)), _fixed_pair(cmath.sin(z))]


def _fixed_pair(v: complex, bits: int = DOUBLE_BITS):
    """A double complex as a pair scaled by 2^bits."""
    return _fixed(v.real, bits), _fixed(v.imag, bits)


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


def _fixed_forms(orders, counts, cos_sin, parts, bits: int):
    """sqrt(pi z/2) J_n(z) = P_n cos chi_n - Q_n sin chi_n for each n of
    ``orders``, Re z >= 0, as pairs scaled by 2^bits, from the term counts
    of ``_hankel_counts``, the pair (cos z, sin z) scaled alike and z = (x
    + iy) / 2^s as the ints ``parts`` = (x, y, s).

    w = 1/(8z) is formed only if some count is not 0; w and cos z, sin z
    serve all orders.  chi_n = z - theta_n with theta_n = (2n + 1) pi/4,
    an odd or even number of eighth turns, so cos theta_n and sin theta_n
    are 0, +-1 or +-1/sqrt(2), each one int.
    """
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
    working tolerance of a zero of J_order, InvalidArgumentError for z = 0
    or an order that is neither an integer nor a half-integer.
    """
    z = complex(z)
    _check(order, z)
    return _ratio(order, z)


def bessel_ratio_mp(order: float, x: int, y: int, s: int, prec: int):
    """J_{order-1}(z)/J_order(z) at the exact z = (x + iy)/2^s beyond
    NATIVE_MAX, the extended solves' entry: ints (re, im, den), the ratio
    (re + i im)/den exactly, by Hankel's integer kernel at prec bits."""
    _check(order, 0j)  # an exact z is finite
    return _ratio_fraction(order, x, y, s, prec, _exact_forms)


def bessel_ratio_exact(order: float, tau: complex, a: float):
    """``bessel_ratio_mp``'s kernel, for the design, at the exact product z =
    tau a of two doubles beyond NATIVE_MAX and ``phase_digits(|tau a|)``
    digits: ints (re, im, den), the ratio (re + i im)/den exactly."""
    _check(order, complex(tau) * a)
    x, y, s = _exact(tau)
    num, den = a.as_integer_ratio()
    return _ratio_fraction(order, x * num, y * num, s + den.bit_length() - 1,
                           libmp.dps_to_prec(phase_digits(abs(tau * a))), _exact_forms)


def _ratio(order: float, z: complex) -> complex:
    """J_{order-1}(z)/J_order(z) in double precision: ``_ratio_fraction``
    at the exact z with the double lane's forms, rounded once."""
    _double_range(z)
    return _rounded(*_ratio_fraction(order, *_exact(z), 53, _double_forms))


def _ratio_fraction(order: float, x: int, y: int, s: int, prec: int, forms):
    """J_{order-1}(z)/J_order(z) at z = (x + iy)/2^s as the exact fraction
    (re, im, den) = (prev conj(cur), |cur|^2) of ints, from the forms
    (cur, prev) ~ sqrt(pi z/2) (J_order, J_{order-1}) over 2^(prec +
    FIXED_GUARD) that the lane's ``forms`` gives at Re z >= 0.  Every ratio
    passes here: Re z < 0 takes ratio(-z) = -ratio(z), and PoleError when
    |J_order| < 1e-12 e^{|Im z|} at prec bits (``_near_pole``).
    """
    if not (x or y):
        raise InvalidArgumentError("ratio undefined at z = 0")
    sign = -1 if x < 0 else 1
    x, y = sign * x, sign * y
    cur, prev = forms((order, order - 1.0), x, y, s, prec)
    if _near_pole(cur, y, s, prec):
        raise _exact_pole_error(order, x, y, s, prev, cur)
    return (sign * (prev[0] * cur[0] + prev[1] * cur[1]),
            sign * (prev[1] * cur[0] - prev[0] * cur[1]),
            cur[0] * cur[0] + cur[1] * cur[1])


def _double_forms(orders, x: int, y: int, s: int, prec: int):
    """The forms sqrt(pi z/2) J_n(z), n in ``orders``, at a double z = (x +
    iy)/2^s: Hankel's where ``_hankel_counts`` serves, else the series'."""
    z = complex(x / (1 << s), y / (1 << s))
    try:
        counts = _hankel_counts(orders, abs(z), prec)
    except AccuracyError:
        root = _fixed_pair(cmath.sqrt(0.5 * math.pi * z))
        return [_fixed_mul(root, _fixed_pair(_jv_series(n, z)), DOUBLE_BITS) for n in orders]
    return _fixed_forms(orders, counts, _cos_sin(z), (x, y, s), DOUBLE_BITS)


def _exact_forms(orders, x: int, y: int, s: int, prec: int):
    """The forms by Hankel's kernel at prec bits, cos z and sin z from
    ``libmp.mpc_cos_sin``; AccuracyError where ``_hankel_counts`` refuses."""
    counts = _hankel_counts(orders, abs(complex(x / (1 << s), y / (1 << s))), prec)
    bits = prec + FIXED_GUARD
    cos_sin = libmp.mpc_cos_sin((libmp.from_man_exp(x, -s), libmp.from_man_exp(y, -s)),
                                prec, "n")
    cos_sin = [(libmp.to_fixed(re, bits), libmp.to_fixed(im, bits)) for re, im in cos_sin]
    return _fixed_forms(orders, counts, cos_sin, (x, y, s), bits)


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


def _exact_pole_error(order: float, x: int, y: int, s: int, prev, cur) -> PoleError:
    """Every PoleError: z = (x + iy)/2^s is near a zero of J_order, at the
    Newton distance |J_order/J_order'|, J_order' = J_{order-1} - (order/z)
    J_order.  From the forms, with slope = 2 (x + iy) prev - 2 order 2^s
    cur, J_order/J_order' = 2 (x + iy) cur / slope exactly."""
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
