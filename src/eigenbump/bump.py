"""Single radial bump potentials with a prescribed non-real eigenvalue.

A bump is the piecewise potential

    U(x) = c                       on the ball |x - t e_d| < a,
         = -(d-3)(d-1)/(4 |x-t e_d|^2)   outside,

whose scalars are generated from a target energy ``lam`` > 0 and an index
m: the radius is a = (d pi/4 + pi m)/nu with nu = sqrt(lam), the decay
rate eta > 0 solves eta e^{2 eta a} = nu, the inner wavenumber is
tau = nu + i eta, and the outer wavenumber

    k = -i (J_{d/2-2}(tau a) / J_{d/2-1}(tau a)) tau + i (d-3)/(2a)

matches the interior Bessel profile to the decaying outer tail
e^{ikr} / r^{(d-1)/2}.  Then mu = k^2 is an eigenvalue of -Delta + U,
c = k^2 - tau^2, and as m grows both |c| and |mu - lam| shrink like eta
while Im k stays positive, which is what lets arbitrarily small bumps
park an eigenvalue next to any point of (0, infinity).

``design_bump`` gallops from index 0 (probing 0, 1, 2, 4, ...) and then
bisects to the feasibility frontier: an index m whose bump meets given
L^p, L^inf and capture budgets while index m - 1 (if any) does not.  The
search assumes feasibility is upward closed in m, as |c| and |mu - lam|
shrink along m; where that fails at small m, the frontier it returns
need not be the smallest feasible index.  At large indices (radii beyond
~1e4 wavelengths) the Bessel argument tau a is formed exactly from the
doubles tau and a, k is one exact fraction rounded once, and the residual
polish runs at scaled arbitrary precision; the double-rounded fields are
what the constraints are checked against, and the stored doubles are the
artifact.  For d = 1 and d = 3 the ratio is elementary, and |c| >=
|tau|^2 / cosh^2(eta a) at every phase (``_c_floor``); a probe that this
bound already puts over the L^p or L^inf budget skips its Bessel
evaluation, and every other probe is evaluated as before.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, replace

from . import eigensolve, specfun
from .errors import AccuracyError, BudgetInfeasibleError, InvalidArgumentError

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class BumpParams:
    """All scalars of one designed bump; ``c`` and ``mu`` derive from k.

    d : dimension, lam : target energy, nu = sqrt(lam), m : radius index,
    a : ball radius, eta : decay rate, tau = nu + i eta, k : outer
    wavenumber, residual : secular residual recorded at design time.
    """

    d: int
    lam: float
    nu: float
    m: int
    a: float
    eta: float
    tau: complex
    k: complex
    residual: float = 0.0

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise InvalidArgumentError("radius a must be finite and > 0")

    @property
    def c(self) -> complex:
        return self.k * self.k - self.tau * self.tau

    @property
    def mu(self) -> complex:
        return self.k * self.k


@dataclass(frozen=True)
class PlacedBump:
    """A bump shifted to centre t*e_d along the last coordinate."""

    params: BumpParams
    t: float


def radius_for_index(d: int, nu: float, m: int) -> float:
    """Ball radius a = (d pi/4 + pi m) / nu."""
    _check_dim(d)
    if not (nu > 0.0 and math.isfinite(nu)):
        raise InvalidArgumentError("nu must be finite and > 0")
    if m < 0:
        raise InvalidArgumentError("index m must be >= 0")
    return (d * math.pi / 4.0 + math.pi * m) / nu


def _lambert_w(x: float) -> float:
    """Principal Lambert W(x) for finite x >= 0: the w >= 0 with w e^w = x.

    Halley's iteration on g(w) = w - x e^{-w}, which overflows nowhere,
    from log1p(x) below e and from the two-term asymptote
    log x - log log x + log log x / log x above; it stops once a step
    moves w by at most 1e-8 relative, which the cubic convergence leaves
    at rounding level (1 to 4 steps on [1e-8, 1e18]).  One Newton step on
    g formed exactly from w, x and the double expm1(w), and rounded once,
    then removes the rounding of the last iterate's residual: the result
    is within 1.3e-16 relative of W on that range.
    """
    if x < math.e:
        w = math.log1p(x)
    else:
        log_x = math.log(x)
        log_log = math.log(log_x)
        w = log_x - log_log + log_log / log_x
    for _ in range(8):
        g = w - x * math.exp(-w)
        step = g / (w + 1.0 - (w + 2.0) * g / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * w:
            break
    # g = w - x / (1 + expm1(w)) on exact binary fractions
    w_num, w_den = w.as_integer_ratio()
    m_num, m_den = math.expm1(w).as_integer_ratio()
    x_num, x_den = x.as_integer_ratio()
    e_num = m_num + m_den
    g = (w_num * e_num * x_den - x_num * w_den * m_den) / (w_den * e_num * x_den)
    return w - g / (w + 1.0)


def solve_eta(nu: float, a: float) -> float:
    """Unique eta > 0 with eta e^{2 eta a} = nu, in closed form:
    eta = W(2 a nu) / (2 a) with W the principal Lambert function.

    Raises AccuracyError when 2 a nu overflows a double or when the
    residual is not within 1e-13 nu.
    """
    if not (0.0 < nu < math.inf and 0.0 < a < math.inf):
        raise InvalidArgumentError("solve_eta requires finite nu > 0 and a > 0")
    x = 2.0 * a * nu
    if x == math.inf:
        raise AccuracyError("2 a nu overflows a double (a = %r, nu = %r)" % (a, nu))
    eta = _lambert_w(x) / (2.0 * a)
    residual = abs(eta * math.exp(2.0 * eta * a) - nu)
    if not residual <= 1e-13 * nu:
        raise AccuracyError("eta residual %.3e exceeds tolerance" % residual,
                            achieved=residual)
    return eta


def boundary_wavenumber(d: int, tau: complex, a: float) -> complex:
    """Outer wavenumber k = -i tau J_{d/2-2}(tau a) / J_{d/2-1}(tau a)
    + i (d-3)/(2a) matching the interior Bessel profile at r = a.

    Up to ``specfun.NATIVE_MAX`` the phase tau a is rounded to a double
    and the ratio is ``bessel_j_ratio``'s.  Beyond it tau a would lose
    more than the ratio's accuracy to that rounding, so the ratio comes as
    an exact fraction at the exact product (``bessel_ratio_exact``), and k
    is formed from it, tau and the double (d-3)/(2a) on ints and rounded
    once.
    """
    _check_dim(d)
    tau = complex(tau)
    if abs(tau * a) <= specfun.NATIVE_MAX:
        ratio = specfun.bessel_j_ratio(d / 2.0 - 1.0, tau * a)
        return complex(-1j * tau * ratio + 1j * (d - 3.0) / (2.0 * a))
    re, im, den = specfun.bessel_ratio_exact(d / 2.0 - 1.0, tau, a)
    x, y, s = specfun._exact(tau)
    c_num, c_den = ((d - 3.0) / (2.0 * a)).as_integer_ratio()
    den <<= s
    # -i tau (re + i im) = (y - ix)(re + i im) / 2^s
    return complex((y * re + x * im) / den,
                   ((y * im - x * re) * c_den + c_num * den) / (den * c_den))


def norm_p(params: BumpParams, p: float) -> float:
    """L^p norm of the bump over R^d (exact closed form).

    The constant part integrates to sigma_{d-1} |c|^p a^d / d and the
    radial tail to sigma_{d-1} X^p a^{d-2p} / (4^p (2p-d)) with
    X = |d-3||d-1|; the tail term vanishes for d in {1, 3} and forces the
    hypothesis p > d (2p - d > d) to converge.
    """
    if not p > params.d:
        raise InvalidArgumentError("norm_p requires p > d (tail diverges otherwise)")
    return _norm_p(params.d, p, params.a, abs(params.c))


def _norm_p(d: int, p: float, a: float, c_abs: float) -> float:
    """``norm_p`` of a bump with radius a and |c| = c_abs, p > d, formed in
    logs (the sphere area through lgamma) so that no p-th power leaves the
    double range."""
    terms = []
    if c_abs > 0.0:
        terms.append(p * math.log(c_abs) + d * math.log(a) - math.log(d))
    x_coef = abs(d - 3.0) * abs(d - 1.0)
    if x_coef > 0.0:
        terms.append(p * math.log(x_coef / 4.0) - (2.0 * p - d) * math.log(a)
                     - math.log(2.0 * p - d))
    if not terms:
        return 0.0
    top = max(terms)
    log_surf = math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0)
    return math.exp((log_surf + top + math.log(sum(math.exp(t - top) for t in terms))) / p)


def norm_inf(params: BumpParams) -> float:
    """Sup norm max(|c|, |d-3||d-1| / (4 a^2))."""
    x_coef = abs(params.d - 3.0) * abs(params.d - 1.0)
    return max(abs(params.c), x_coef / (4.0 * params.a * params.a))


def potential_eval(placed: PlacedBump, x) -> complex:
    """U(x) for a placed bump; the boundary sphere r = a takes the value c."""
    r = _radial_distance(placed.params.d, placed.t, x)
    if r <= placed.params.a:
        return placed.params.c
    d = placed.params.d
    return complex(-(d - 3.0) * (d - 1.0) / (4.0 * r * r))


def eigenfunction_eval(params: BumpParams, t: float, x) -> complex:
    """Radial eigenfunction f(x) = g(|x - t e_d|) of the designed bump.

    g is Bessel-shaped inside the ball and e^{ikr}/r^{(d-1)/2} outside;
    the removable singularity at r = 0 takes its series limit
    tau^{d/2-1} / (2^{d/2-1} Gamma(d/2)).  Both g and g' are continuous
    at r = a by the choice of k.
    """
    d, a, tau, k = params.d, params.a, params.tau, params.k
    r = _radial_distance(d, t, x)
    half = d / 2.0 - 1.0
    if r > a:
        return cmath.exp(1j * k * r) / r ** ((d - 1.0) / 2.0)
    amp = cmath.exp(1j * k * a) / (
        math.sqrt(a) * specfun._jv(half, tau * a, 1e-12))
    if r == 0.0:
        return amp * tau ** half / (2.0 ** half * math.gamma(d / 2.0))
    return amp * specfun._jv(half, tau * r, 1e-12) / r ** half


def _radial_distance(d: int, t: float, x) -> float:
    try:
        point = [float(v) for v in x]
    except TypeError:  # a bare number is a point on the line
        point = [float(x)]
    if len(point) != d:
        raise InvalidArgumentError("point must have %d coordinates, got %d"
                                   % (d, len(point)))
    return math.dist(point, [0.0] * (d - 1) + [t])


def _check_dim(d) -> None:
    if not (isinstance(d, numbers.Integral) and d >= 1):
        raise InvalidArgumentError("dimension must be a positive integer, got %r" % (d,))


# ---------------------------------------------------------------------------
# bump design: the frontier index meeting all budgets


def _candidate(d: int, nu: float, lam: float, m: int,
               budgets=None) -> BumpParams | None:
    """Raw bump scalars at index m, rounded to the stored double artifact;
    None, before the Bessel ratio is evaluated, when ``budgets`` = (p,
    eps, delta) are given and ``_over_budget`` proves the index over them."""
    a = radius_for_index(d, nu, m)
    eta = solve_eta(nu, a)
    if budgets is not None and _over_budget(d, *budgets, nu, a, eta):
        return None
    tau = complex(nu, eta)
    k = boundary_wavenumber(d, tau, a)
    return BumpParams(d=d, lam=lam, nu=nu, m=m, a=a, eta=eta, tau=tau, k=k)


def _c_floor(nu: float, a: float, eta: float) -> float:
    """A lower bound on the |c| of the stored k of a d = 1 or d = 3 bump
    of radius a and decay rate eta, found without evaluating k.

    With z = tau a = x + iy, y = eta a, the half-integer ratio is
    elementary (DLMF 10.16.1): for d = 1, k = i tau tan z (the term
    i(d-3)/(2a) cancels tau/z), and for d = 3, k = -i tau cot z.  So
    c = -tau^2/cos^2 z or -tau^2/sin^2 z, and as |cos z|^2 = cos^2 x +
    sinh^2 y and |sin z|^2 = sin^2 x + sinh^2 y are at most cosh^2 y,
    |c| >= B = |tau|^2/cosh^2 y at every phase x, the one lost when the
    double lane rounds tau a included.

    The stored c is k k - tau tau in doubles.  Beyond ``NATIVE_MAX`` k is
    the exact value rounded once, which puts that c within 2^-53 (7 |c| +
    8 |tau|^2) of the exact one.  Up to it y = W(2 a nu)/2 < 4.4, and
    ``bessel_j_ratio``'s few-ulp error and the double arithmetic of k move
    c by some tens of 2^-53 (|c| + |tau|^2) cosh^2 y, which costs the
    bound less than 1e-10 B.  So |c| >= (1 - 1e-6) B - 2^-49 |tau|^2 in
    both lanes, with room left for the rounding of B (y < 360) and of
    ``norm_p``.
    """
    tau2 = nu * nu + eta * eta
    return (1.0 - 1e-6) * tau2 / math.cosh(eta * a) ** 2 - 2.0 ** -49 * tau2


def _over_budget(d: int, p: float, eps: float, delta: float, nu: float,
                 a: float, eta: float) -> bool:
    """Whether a d = 1 or d = 3 bump of radius a and decay rate eta
    provably fails ``norm_inf_budget`` or ``norm_p_budget``: for these d,
    ``norm_inf`` is |c| and ``norm_p`` = (surf |c|^p a^d/d)^{1/p}, both
    growing with |c|, so ``_c_floor`` reaching a budget proves it.
    """
    low = _c_floor(nu, a, eta)
    return low >= delta or _norm_p(d, p, a, low) >= eps


def _first_failure(params: BumpParams, p: float, eps: float, delta: float,
                   r: float) -> str | None:
    """Name of the first violated budget constraint, or None if feasible."""
    if not params.k.imag > 0.0:
        return "im_k_positive"
    mu = params.mu
    if not mu.imag < 0.0:
        return "im_mu_negative"
    if not abs(mu - complex(params.lam)) < r:
        return "eigenvalue_capture"
    if not norm_inf(params) < delta:
        return "norm_inf_budget"
    if not norm_p(params, p) < eps:
        return "norm_p_budget"
    return None


def design_bump(d: int, p: float, lam: float, eps: float, delta: float,
                r: float, m_cap: int = 10 ** 18) -> BumpParams:
    """Frontier-index bump with ||U||_p < eps, ||U||_inf < delta,
    |mu - lam| < r, Im mu < 0 and a secular residual <= 1e-10.

    One galloping search: indices 0, 1, 2, 4, 8, ... (each capped at
    m_cap) are probed until one is feasible, then the interval (last
    infeasible, first feasible] is bisected.  The index found sits on the
    feasibility frontier: it is 0, or index m - 1 is infeasible.  Assuming
    feasibility is upward closed in m (the budgets shrink along m once the
    asymptotic regime is reached), that is the smallest feasible index.
    Desk-scale budgets need indices around 1e5..1e17, which the search
    reaches in O(log m) probes.  The residual confirmation may still move
    the index up by a few steps.  Raises BudgetInfeasibleError naming the
    constraint the last probe fails when no probe up to m_cap works, or
    up to the last index whose radius and eta are finite (``_in_range``).

    For d = 1 and d = 3 a probe first bounds |c| from below in closed form
    (``_over_budget``) and skips the Bessel ratio of an index the bound
    already puts over the L^p or L^inf budget; the bound never accepts an
    index, so feasible probes, those near the frontier and the last one,
    whose failure the error names, are all evaluated in full.  Other
    dimensions evaluate every probe.
    """
    _check_dim(d)
    if not p > d:
        raise InvalidArgumentError("design_bump requires p > d, got p=%r d=%r" % (p, d))
    if not (lam > 0.0 and math.isfinite(lam)):
        raise InvalidArgumentError("lam must lie in (0, inf)")
    if not (eps > 0.0 and delta > 0.0 and r > 0.0):
        raise InvalidArgumentError("budgets eps, delta, r must be positive")
    if m_cap < 0:
        raise InvalidArgumentError("m_cap must be >= 0, got %r" % (m_cap,))

    nu = math.sqrt(lam)
    screen = (p, eps, delta) if d in (1, 3) else None

    def probe(m: int, budgets):
        """(first failure, params) at index m, or ("screened", None)."""
        params = _candidate(d, nu, lam, m, budgets)
        if params is None:
            return "screened", None
        return _first_failure(params, p, eps, delta, r), params

    lo, m = -1, 0  # lo: the last infeasible index probed
    while True:
        step = min(max(2 * m, 1), m_cap)
        last = m >= m_cap or not _in_range(d, nu, step)
        fail, found = probe(m, None if last else screen)
        if fail is None:
            break
        if last:
            raise BudgetInfeasibleError(
                "no bump index up to %d meets all budgets (last failure: %s)"
                % (m, fail), failed_constraint=fail)
        lo, m = m, step
    while found.m - lo > 1:
        mid = (lo + found.m) // 2
        fail, params = probe(mid, screen)
        if fail is None:
            found = params
        else:
            lo = mid

    return _finalize(found, p, eps, delta, r, m_cap)


def _in_range(d: int, nu: float, m: int) -> bool:
    """Whether index m's radius a and 2 a nu = (d/2 + 2m) pi, the argument
    of its eta's Lambert function, are finite doubles (m below ~3e307)."""
    try:
        return math.isfinite(2.0 * nu * radius_for_index(d, nu, m))
    except OverflowError:  # an int index that large overflows a float
        return False


def _finalize(params: BumpParams, p: float, eps: float, delta: float,
              r: float, m_cap: int) -> BumpParams:
    """Attach the secular residual; nudge the index up if the residual
    polish moves the stored wavenumber off a budget boundary."""
    for extra in range(64):
        polished, residual = _polish(params)
        if (_first_failure(polished, p, eps, delta, r) is None
                and residual <= RESIDUAL_TOL):
            return replace(polished, residual=residual)
        next_m = params.m + 1
        if next_m > m_cap:
            break
        params = _candidate(params.d, params.nu, params.lam, next_m)
    raise BudgetInfeasibleError(
        "bump at index %d failed final residual/budget confirmation" % params.m,
        failed_constraint="secular_residual")


def _polish(params: BumpParams) -> tuple[BumpParams, float]:
    """Secular residual of the stored-double bump, after Newton on the
    secular function of the *stored* potential (c, a) from k at the bits
    its phase needs (``eigensolve.polish_root_mp``).

    In the native regime the stored k is itself accurate enough that
    |F(k)| <= a * eps stays below tolerance, so Newton returns at its seed
    with k and |F(k)| unchanged.  Beyond it the residual of a stored
    double is dominated by the resonance-ladder steepness |F'| ~ a, so
    Newton steps on an exact offset from k, and k is the root rounded
    once; the recorded residual then certifies that k sits within an ulp
    of a true root.
    """
    problem = eigensolve.SecularProblem(d=params.d, c=params.c, a=params.a,
                                        branch_ref=params.tau)
    k_root, residual = eigensolve.polish_root_mp(problem, params.k)
    k_new = complex(k_root)
    if k_new != params.k:
        params = replace(params, k=k_new)
    return params, residual
