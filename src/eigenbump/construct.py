"""Inductive desk-scale construction of accumulating eigenvalue clouds.

Targets (q_n, m_n) enumerate the positive rationals crossed with capture
precisions 1/m_n.  Step n designs a bump whose standalone eigenvalue lands
within min(dist to previously placed eigenvalues, 1/(4 m_n)) of q_n under
the norm budgets

    eps_n = 6 E / (pi^2 n^2),    delta_n = 6 min(gamma_{n-1}, E) / (pi^2 n^2),

shifts it rightwards until the transfer oracle confirms the eigenvalue
survives next to the already-placed potential (doubling search with a
stability confirmation), and certifies a perturbation radius gamma_n from
two-grid resolvent estimates on a circle of radius rho_n around mu_n, so
that the still-unbuilt tail sum(delta_j, j>n) < gamma_n cannot push the
eigenvalue out of the rho_n disk.  After the last step every eigenvalue is
re-located against the full potential and the capture contract
|lambda_n - q_n| < 1/m_n, Im lambda_n < 0 is asserted.

Everything is deterministic: the enumeration is a fixed bijection, the
bump index comes from one galloping search and the shift from a doubling
search, the grid oracle starts from a fixed vector, and the resolvent
sweep starts from a fixed ramp and warm-starts every later Lanczos run
from a vector computed earlier in the same sweep (the previous circle
point's on the coarse grid, the point's own coarse one on the fine grid).
"""

from __future__ import annotations

import cmath
import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import bump as bumpmod
from . import eigensolve, specfun
from .bump import BumpParams
from .errors import (ConstructionError, EigenbumpError, GridResolutionError,
                     InvalidArgumentError, LedgerError, NoConvergenceError,
                     ShiftSearchError, SingularShiftError)

log = logging.getLogger("eigenbump.construct")

SHIFT_DOUBLING_CAP = 20
GAMMA_CIRCLE_POINTS = 16
SEPARATION_COUPLING = 1e-10  # heuristic decoupling e^{-Im k * gap} for d >= 2


@dataclass(frozen=True)
class Target:
    """Target energy q (positive rational) with capture radius 1/m."""

    q: Fraction
    m: int

    def __post_init__(self):
        q = Fraction(self.q)
        object.__setattr__(self, "q", q)
        if q <= 0:
            raise InvalidArgumentError("target energy must be positive")
        if self.m < 1:
            raise InvalidArgumentError("precision index m must be >= 1")


@dataclass
class LedgerEntry:
    """Everything recorded about one construction step."""

    n: int
    target: Target
    eps_n: float
    delta_n: float
    bump: BumpParams
    t: float
    mu_n: complex
    residual_mu: float
    rho_n: float
    gamma_n: float
    gamma_warning: bool
    lambda_n: complex | None = None
    residual_lambda: float = math.nan
    dist_lambda_mu: float = math.nan
    lambda_within_rho: bool = False
    verified: bool = False
    _k_mu: object = field(default=None, repr=False)  # mu_n's root: complex or exact OffsetK


@dataclass
class ConstructionLedger:
    """Ordered record of a finite truncation of the construction."""

    d: int
    p: float
    budget: float
    domain: str = "whole"
    phi: float | None = None
    entries: list = field(default_factory=list)
    failed_at: int | None = None
    failure: str | None = None

    def partial_note(self) -> str:
        """'ledger is partial (failed at step n)', plus ': reason' when
        the failure reason is known (ledger files do not store it)."""
        note = "ledger is partial (failed at step %s)" % self.failed_at
        return note + ": " + self.failure if self.failure else note


# ---------------------------------------------------------------------------
# enumeration of (positive rationals) x (precision indices)

def _unpair(code: int) -> tuple[int, int]:
    """Inverse of the diagonal pairing (i, j) -> (i+j)(i+j+1)/2 + j."""
    w = (math.isqrt(8 * code + 1) - 1) // 2
    j = code - w * (w + 1) // 2
    return w - j, j


def _calkin_wilf(index: int) -> Fraction:
    """index-th rational (0-based) in breadth-first Calkin-Wilf order.

    The binary digits of index+1 below the leading 1 spell the root path:
    0 descends to a/(a+b), 1 to (a+b)/b.  Every positive rational appears
    exactly once, already in lowest terms.
    """
    num, den = 1, 1
    for bit in bin(index + 1)[3:]:
        if bit == "0":
            den = num + den
        else:
            num = num + den
    return Fraction(num, den)


def _calkin_wilf_index(q: Fraction) -> int:
    num, den = q.numerator, q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    return int("1" + "".join(reversed(bits)), 2) - 1


def enumerate_targets(n: int) -> Target:
    """Fixed bijection from step numbers n >= 1 onto all pairs (q, m)."""
    if n < 1:
        raise InvalidArgumentError("step numbers start at 1")
    i, j = _unpair(n - 1)
    return Target(q=_calkin_wilf(i), m=j + 1)


def target_index(q, m: int) -> int:
    """Inverse of enumerate_targets: the step at which (q, m) appears."""
    q = Fraction(q)
    if q <= 0 or m < 1:
        raise InvalidArgumentError("need q > 0 and m >= 1")
    i = _calkin_wilf_index(q)
    j = m - 1
    return (i + j) * (i + j + 1) // 2 + j + 1


def budgets(n: int, total: float, gamma_prev: float) -> tuple[float, float]:
    """Per-step norm budgets; their full series sums exactly to the total."""
    if n < 1 or not total > 0.0 or not gamma_prev > 0.0:
        raise InvalidArgumentError("need n >= 1, total > 0, gamma_prev > 0")
    base = 6.0 / (math.pi ** 2 * n * n)
    return base * total, base * min(gamma_prev, total)


# ---------------------------------------------------------------------------
# step potentials assembled from ledger entries

def step_potential(entries, domain: str = "whole", phi: float | None = 0.0,
                   extra: tuple | None = None,
                   support_perturbation: complex = 0.0) -> eigensolve.StepPotential1D:
    """1-d step potential of the listed bumps (plus an optional extra
    placement), with an optional constant added on the union of supports.
    A ``phi`` of None (a whole-line ledger's) means 0."""
    placed = [(e.t, e.bump.a, e.bump.c) for e in entries]
    if extra is not None:
        bp, t = extra
        placed.append((t, bp.a, bp.c))
    placed.sort(key=lambda rec: rec[0] - rec[1])
    breakpoints: list[float] = []
    values: list[complex] = []
    prev_right = None
    for t, a, c in placed:
        left, right = t - a, t + a
        if prev_right is not None:
            if left <= prev_right:
                raise LedgerError("support intervals overlap: %g <= %g"
                                  % (left, prev_right))
            values.append(0.0)
        breakpoints.extend([left, right])
        values.append(c + support_perturbation)
        prev_right = right
    return eigensolve.StepPotential1D(tuple(breakpoints), tuple(values),
                                      boundary=domain, phi=phi or 0.0)


def windowed_potential(ledger: ConstructionLedger, entry,
                       margin: float) -> eigensolve.StepPotential1D:
    """Sub-potential seen by one entry's eigenfunction.

    The eigenfunction of lambda_n dies like e^{-Im k |x - t_n|}, so bumps
    beyond the margin contribute below the margin's tail weight and the
    operator may be truncated to a window around the entry.  The window
    is whole-line unless it belongs to a Robin ledger and reaches x <= 0,
    in which case it keeps the wall.
    """
    lo = entry.t - entry.bump.a - margin
    hi = entry.t + entry.bump.a + margin
    kept = [e for e in ledger.entries
            if e.t + e.bump.a > lo and e.t - e.bump.a < hi]
    if ledger.domain == "robin" and lo <= 0.0:
        return step_potential(kept, "robin", ledger.phi)
    return step_potential(kept)


def _dist_to_halfline(mu: complex) -> float:
    if mu.real >= 0.0:
        return abs(mu.imag)
    return abs(mu)


# ---------------------------------------------------------------------------
# shift search

def choose_shift(ledger: ConstructionLedger, new_bump: BumpParams,
                 r: float) -> tuple[float, complex, float, object]:
    """Doubling search for a placement shift.

    Starting from (rightmost existing support) + 2a, each candidate t is
    accepted once the transfer eigenvalue of the combined potential sits
    within r of the standalone one AND another doubling moves it by less
    than r/10.  Returns (t, mu_t, residual, full-precision k).
    """
    if ledger.d != 1:
        raise InvalidArgumentError("shift search is oracle-verified only for d=1")
    rightmost = max((e.t + e.bump.a for e in ledger.entries), default=0.0)
    t_cand = rightmost + 2.0 * new_bump.a
    mu_ref = new_bump.mu
    deviations = []
    for _ in range(SHIFT_DOUBLING_CAP):
        pot = step_potential(ledger.entries, ledger.domain, ledger.phi,
                             extra=(new_bump, t_cand))
        k_t, res_t = eigensolve._transfer_newton(pot, new_bump.k)
        mu_t = complex(k_t) ** 2
        dev = abs(mu_t - mu_ref)
        deviations.append(dev)
        if dev < r and complex(k_t).imag > 0.0:
            pot2 = step_potential(ledger.entries, ledger.domain, ledger.phi,
                                  extra=(new_bump, 2.0 * t_cand))
            k_2t, _ = eigensolve._transfer_newton(pot2, new_bump.k)
            mu_2t = complex(k_2t) ** 2
            if abs(mu_2t - mu_t) < r / 10.0:
                return t_cand, mu_t, res_t, k_t
        t_cand *= 2.0
    raise ShiftSearchError(
        "no stable shift in %d doublings; |mu_t - mu| sequence: %s"
        % (SHIFT_DOUBLING_CAP, deviations), deviations=deviations)


# ---------------------------------------------------------------------------
# stability radius

@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    rho: float
    warning: bool
    method: str


def estimate_gamma(ledger: ConstructionLedger, mu_n: complex,
                   gamma_prev: float = math.inf) -> GammaEstimate:
    """Certified-in-practice stability radius gamma_n = rho / (2 M).

    rho is half the distance of mu_n to [0, inf); M is the largest
    resolvent-norm estimate (reciprocal smallest singular value of the
    discretised H_n - z, the more pessimistic of two grids) over 16 points
    of the circle |z - mu_n| = rho.  A perturbation below gamma_n then
    keeps (H_n + U - z) invertible on the circle, trapping an eigenvalue
    inside.  When no affordable grid resolves the problem, a shift is
    exactly singular on a grid, or the sigma_min iteration does not
    settle, the documented fallback min(gamma_prev, rho/10) is returned,
    flagged, with its reason logged.

    The Lanczos runs (``eigensolve.grid_sigma_min``) are warm-started,
    which changes their cost and not their stop rule: on the coarse grid
    each circle point starts from the singular vector of the point before
    it (point 0 from the ramp), and on the fine grid each point starts
    from its own coarse vector, prolonged.  Neighbouring shifts have close
    singular vectors, so each run starts near its answer.
    """
    rho = _dist_to_halfline(mu_n) / 2.0
    if not rho > 0.0:
        raise InvalidArgumentError("mu_n sits on the essential spectrum")

    def fallback(why) -> GammaEstimate:
        log.info("gamma step: %s; using fallback", why)
        return GammaEstimate(gamma=min(gamma_prev, rho / 10.0), rho=rho,
                             warning=True, method="fallback")
    if ledger.d != 1 or not ledger.entries:
        return fallback("no 1-d entries to grid (d = %d)" % ledger.d)

    pot = step_potential(ledger.entries, ledger.domain, ledger.phi)
    try:
        x_lo, x_hi, n_pts = eigensolve.grid_layout(pot, mu_n)
    except GridResolutionError as exc:
        return fallback(exc)

    # the discretisation must place mu_n well inside the rho-circle
    try:
        located = eigensolve.grid_oracle_1d(pot, mu_n, max(4.0 * rho, 1e-8))
    except GridResolutionError as exc:
        return fallback(exc)
    if not located or abs(located[0].mu - mu_n) > rho / 5.0:
        return fallback("no grid eigenvalue within rho/5 of mu_n")

    m_worst = 0.0
    per_grid = []
    coarse_vectors = None
    for n_grid in (n_pts, 2 * n_pts + 1):
        m_here = 0.0
        vectors = []
        for idx in range(GAMMA_CIRCLE_POINTS):
            z = mu_n + rho * cmath.exp(2j * math.pi * idx / GAMMA_CIRCLE_POINTS)
            if coarse_vectors is not None:
                start = coarse_vectors[idx]
            else:
                start = vectors[-1] if vectors else None
            try:
                sigma, vector = eigensolve.grid_sigma_min(pot, z, x_lo, x_hi,
                                                          n_grid, start=start)
            except (NoConvergenceError, SingularShiftError) as exc:
                return fallback(exc)
            vectors.append(vector)
            m_here = max(m_here, 1.0 / max(sigma, 1e-300))
        coarse_vectors = vectors
        per_grid.append(m_here)
        m_worst = max(m_worst, m_here)
    if max(per_grid) > 3.0 * min(per_grid):
        return fallback("grids disagree: resolvent norms %.3e, %.3e" % tuple(per_grid))
    gamma = min(gamma_prev, rho / (2.0 * m_worst))
    return GammaEstimate(gamma=gamma, rho=rho, warning=False, method="resolvent")


# ---------------------------------------------------------------------------
# the induction

def build(d: int, p: float, budget: float, steps: int, domain: str = "whole",
          phi: float = 0.0, targets=None, m_cap: int = 10 ** 18) -> ConstructionLedger:
    """Run the inductive construction for a finite number of steps.

    For d = 1 every eigenvalue is oracle-verified against the partial and
    the full potential.  For d in {2, 3, 5, ...} bumps are standalone-
    verified only and placed by the separation heuristic
    e^{-Im k * gap} < 1e-10; such entries stay flagged unverified.
    Aborts raise ConstructionError carrying the partial ledger.
    """
    if not isinstance(d, numbers.Integral) or d < 1:
        raise InvalidArgumentError("dimension must be a positive integer")
    if not p > d:
        raise InvalidArgumentError("construction requires p > d")
    if not budget > 0.0:
        raise InvalidArgumentError("budget must be positive")
    if steps < 0:
        raise InvalidArgumentError("steps must be >= 0")
    if domain not in ("whole", "robin"):
        raise InvalidArgumentError("domain must be 'whole' or 'robin'")
    if domain == "robin":
        if d != 1:
            raise InvalidArgumentError(
                "robin half-line runs are oracle-verified only for d = 1")
        if not (0.0 <= phi < math.pi):
            raise InvalidArgumentError("phi must lie in [0, pi)")
    if targets is not None and len(targets) < steps:
        raise InvalidArgumentError("need one explicit target per step")

    ledger = ConstructionLedger(d=d, p=p, budget=budget, domain=domain,
                                phi=(phi if domain == "robin" else None))
    gamma_prev = math.inf
    try:
        for n in range(1, steps + 1):
            target = targets[n - 1] if targets is not None else enumerate_targets(n)
            q_f = float(target.q)
            eps_n, delta_n = budgets(n, budget, gamma_prev)
            cap = 1.0 / (4.0 * target.m)
            dist_prev = min((abs(q_f - e.mu_n) for e in ledger.entries),
                            default=math.inf)
            r_design = min(dist_prev, cap)
            log.info("step %d: target %s within 1/%d, budgets eps=%.3g delta=%.3g r=%.3g",
                     n, target.q, target.m, eps_n, delta_n, r_design)
            bp = bumpmod.design_bump(d, p, q_f, eps_n, delta_n, r_design,
                                     m_cap=m_cap)

            if d == 1:
                t_n, mu_n, res_mu, k_mu = choose_shift(ledger, bp, cap)
            else:
                gap = math.log(1.0 / SEPARATION_COUPLING) / bp.k.imag
                rightmost = max((e.t + e.bump.a for e in ledger.entries),
                                default=0.0)
                t_n = rightmost + bp.a + gap
                mu_n, res_mu, k_mu = bp.mu, bp.residual, bp.k

            if not (abs(mu_n - q_f) < 1.0 / (2.0 * target.m) and mu_n.imag < 0.0):
                raise ConstructionError(
                    "step %d: mu=%r missed the capture ball around %s" % (n, mu_n, target.q))

            entry = LedgerEntry(n=n, target=target, eps_n=eps_n, delta_n=delta_n,
                                bump=bp, t=t_n, mu_n=mu_n, residual_mu=res_mu,
                                rho_n=0.0, gamma_n=0.0, gamma_warning=False,
                                _k_mu=k_mu)
            est = estimate_gamma(replace(ledger, entries=[*ledger.entries, entry]),
                                 mu_n, gamma_prev)
            entry.rho_n, entry.gamma_n = est.rho, est.gamma
            entry.gamma_warning = est.warning
            ledger.entries.append(entry)
            gamma_prev = est.gamma

        _verify_against_full(ledger)
    except EigenbumpError as exc:
        failed_at = len(ledger.entries) + 1
        if isinstance(exc, ConstructionError) and exc.failed_at is not None:
            failed_at = exc.failed_at
        ledger.failed_at = failed_at
        ledger.failure = str(exc)
        raise ConstructionError(str(exc), ledger=ledger, failed_at=failed_at) from exc
    return ledger


def _verify_against_full(ledger: ConstructionLedger) -> None:
    """Re-locate every eigenvalue against the full truncated potential and
    assert the capture contract; for d >= 2 entries stay standalone-only."""
    if not ledger.entries:
        return
    if ledger.d != 1:
        for entry in ledger.entries:
            entry.lambda_n = entry.mu_n
            entry.residual_lambda = entry.residual_mu
            entry.dist_lambda_mu = 0.0
            entry.lambda_within_rho = False
            entry.verified = False
        return
    pot = step_potential(ledger.entries, ledger.domain, ledger.phi)
    for entry in ledger.entries:
        seed = complex(entry._k_mu)
        k_lam, res_l = eigensolve._transfer_newton(pot, seed)
        lam = complex(k_lam) ** 2
        # measure |lambda - mu| before double rounding; at astronomic
        # scales the gap sits near one ulp of mu itself
        dist_lm = specfun._dist_squares(k_lam, entry._k_mu)
        q_f = float(entry.target.q)
        entry.lambda_n = lam
        entry.residual_lambda = res_l
        entry.dist_lambda_mu = dist_lm
        entry.lambda_within_rho = bool(dist_lm < entry.rho_n)
        captured = (abs(lam - q_f) < 1.0 / entry.target.m) and lam.imag < 0.0
        if not captured:
            raise ConstructionError(
                "entry %d: lambda=%r escaped B(%s, 1/%d)"
                % (entry.n, lam, entry.target.q, entry.target.m),
                failed_at=entry.n)
        entry.verified = True
