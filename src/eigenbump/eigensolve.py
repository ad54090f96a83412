"""Independent locators and verifiers for complex eigenvalues.

Three routes that share as little code as possible:

  * a secular-equation residual F(k) for single radial bumps in any
    dimension, with Newton polishing,
  * an exact 2x2 transfer-matrix solver for 1-d step potentials on the
    whole line and the Robin half-line,
  * a finite-difference grid oracle for 1-d cross-validation: the grid
    eigenvalue nearest a target, by inverse iteration on one tridiagonal
    LU (shift-invert Arnoldi when that does not settle), with Richardson
    extrapolation over two resolutions.

Wavenumbers live in the upper half-plane (Im k > 0 encodes decay), and
every square root sqrt(k^2 - c) is tracked continuously from a reference
value so Newton paths never hop branches.  Transfer propagation rescales
each interval by the analytic factor e^{i kappa L}; this tames the
exponential growth of the decaying solution without breaking the complex
differentiability Newton relies on.  Beyond ~3e4 radians of accumulated
phase, where double argument reduction would drown the 1e-10 tolerance,
Newton steps in double on the offset from the seed, and each evaluation
runs on ints at the phase's bits (``specfun.solve_bits``).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from mpmath import libmp

from . import specfun
from .errors import (AccuracyError, GridResolutionError, InvalidArgumentError,
                     NoConvergenceError, PoleError, SingularShiftError,
                     WrongSheetError)

if TYPE_CHECKING:
    import numpy as np

SECULAR_TOL = 1e-10
STEP_TOL = 1e-12
NEWTON_CAP = 50
GRID_POINT_CAP = 220_000
SIGMA_TOL = 1e-12
# Lanczos vectors kept by grid_sigma_min; with the one being formed, 8 node
# vectors, 28 MB at GRID_POINT_CAP
SIGMA_BASIS = 7
SIGMA_ITER_CAP = 1000
INVERSE_TOL = 1e-14
INVERSE_STEP_CAP = 8


@dataclass(frozen=True)
class SecularProblem:
    """Radial matching problem: roots of F(k) are eigen-wavenumbers of the
    bump with constant c on radius a in dimension d.  ``branch_ref`` seeds
    the continuous selection of tau(k) = sqrt(k^2 - c)."""

    d: int
    c: complex
    a: float
    branch_ref: complex

    def __post_init__(self):
        if not self.a > 0.0:
            raise InvalidArgumentError("radius a must be positive")


@dataclass(frozen=True)
class EigenResult:
    """A located eigenvalue; k is primary and mu = k^2 derived."""

    k: complex
    mu: complex
    residual: float
    method: str


class OffsetK(NamedTuple):
    """A root beyond NATIVE_MAX, k = seed + offset; complex() rounds it once."""

    seed: complex
    offset: complex

    def __complex__(self) -> complex:
        x, y, s = specfun._exact(*self)
        return specfun._rounded(x, y, 1 << s)


def eigen_result(k: complex, residual: float, method: str) -> EigenResult:
    k = complex(k)
    return EigenResult(k=k, mu=k * k, residual=float(residual), method=method)


@dataclass(frozen=True)
class StepPotential1D:
    """Piecewise-constant 1-d potential, zero outside the breakpoint range.

    ``boundary`` is "whole" for the full line or "robin" for the half-line
    x > 0 with boundary condition cos(phi) f'(0) + sin(phi) f(0) = 0.
    """

    breakpoints: tuple
    values: tuple
    boundary: str = "whole"
    phi: float = 0.0

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) < 2 or len(vals) != len(bps) - 1:
            raise InvalidArgumentError(
                "need n >= 2 breakpoints and n-1 interval values")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise InvalidArgumentError("breakpoints must increase strictly")
        if self.boundary not in ("whole", "robin"):
            raise InvalidArgumentError("boundary must be 'whole' or 'robin'")
        if self.boundary == "robin":
            if bps[0] <= 0.0:
                raise InvalidArgumentError(
                    "robin potentials need their support strictly inside x > 0")
            if not (0.0 <= self.phi < math.pi):
                raise InvalidArgumentError("phi must lie in [0, pi)")


# ---------------------------------------------------------------------------
# branch-tracked square roots and Newton

def _branch_sqrt(w: complex, ref: complex) -> complex:
    s = cmath.sqrt(w)
    if abs(s - ref) > abs(-s - ref):
        s = -s
    return s


def _fixed_sqrt(x: int, y: int, s: int, bits: int):
    """The principal sqrt of w = (x + iy)/2^s (Im >= 0 at y = 0) to a few 2^-bits,
    as a pair scaled by 2^bits: the larger part isqrt((|w| + |Re w|)/2)."""
    shift = 2 * bits - s
    x, y = (x << shift, y << shift) if shift >= 0 else (x >> -shift, y >> -shift)
    big = math.isqrt((math.isqrt(x * x + y * y) + abs(x)) >> 1)
    small = abs(y) // (2 * big) if big else 0
    return (big, small if y >= 0 else -small) if x >= 0 else (small, big if y >= 0 else -big)


def _fixed_root(k, v, ref, bits: int):
    """sqrt(k^2 - v) of exact k = (kx, ky, ks), v = (vx, vy, vs) over 2^bits,
    on the side of the pair ``ref``: flipped when root . ref < 0."""
    (kx, ky, ks), (vx, vy, vs) = k, v
    s = max(2 * ks, vs)
    re, im = _fixed_sqrt(((kx * kx - ky * ky) << s - 2 * ks) - (vx << s - vs),
                         ((2 * kx * ky) << s - 2 * ks) - (vy << s - vs), s, bits)
    return (-re, -im) if re * ref[0] + im * ref[1] < 0 else (re, im)


def _newton(f_eval, z, refs, steep_scale: float, base: complex = 0.0):
    """Undamped Newton with numerically differenced derivative on z, k =
    base + z; stops at |F| <= SECULAR_TOL once the last step is below
    STEP_TOL (1 + |k|).

    ``f_eval(z, refs)`` returns (F, |F|, refs): the branch references are
    carried from each evaluation into the next, z before z + h before z -
    h.  The derivative step shrinks with the oscillation scale of the
    secular function (resonances sit ~pi/steep_scale apart in k), so
    probing never averages across neighbouring roots.
    """
    dk_last = 0.0
    for _ in range(NEWTON_CAP):
        try:
            f_k, af, refs = f_eval(z, refs)
            size = 1.0 + abs(base + z)
            if af <= SECULAR_TOL and dk_last <= STEP_TOL * size:
                return z, float(af)
            h = size * min(1e-6, 0.3 / max(1.0, steep_scale))
            f_plus, _, refs = f_eval(z + h, refs)
            f_minus, _, refs = f_eval(z - h, refs)
            deriv = (f_plus - f_minus) / (2.0 * h)
        except (OverflowError, ZeroDivisionError, AccuracyError, PoleError) as exc:
            raise NoConvergenceError("iteration left the evaluable region: %s"
                                     % exc) from exc
        if deriv == 0:
            raise NoConvergenceError("zero numerical derivative")
        step = -f_k / deriv
        z = z + step
        dk_last = abs(step)
        if not math.isfinite(abs(base + z)):
            raise NoConvergenceError("iterate diverged")
    raise NoConvergenceError("newton cap %d exceeded" % NEWTON_CAP)


def _solve(scale: float, f_double, f_fixed, k0: complex, refs):
    """(k, |F|) by Newton from k0 at the bits of the phase ``scale``: in
    double on k, ``f_double(k, refs)`` giving (F, |F|, refs); beyond
    NATIVE_MAX on the offset delta from k0, k = ``OffsetK(k0, delta)``,
    ``f_fixed(k0 + delta exactly, refs over 2^bits, bits)`` giving ((re,
    im, den), refs), from which F and |F| are each rounded once."""
    bits = specfun.solve_bits(scale)
    if bits is None:
        return _newton(f_double, k0, refs, scale)

    def f_eval(delta, refs):
        (re, im, den), refs = f_fixed(specfun._exact(k0, delta), refs, bits)
        return specfun._rounded(re, im, den), specfun._abs_rounded(re, im, den), refs

    delta, residual = _newton(f_eval, 0j, [specfun._fixed_pair(r, bits) for r in refs],
                              scale, k0)
    return OffsetK(k0, delta), residual


# ---------------------------------------------------------------------------
# secular equation for a single radial bump

def _secular_eval(problem: SecularProblem, k: complex, refs):
    """F(k), |F| and [tau] in double, tau tracked from refs = [tau_ref];
    F = k + i tau R(tau a) - i(d-3)/(2a)."""
    tau = _branch_sqrt(k * k - problem.c, refs[0])
    ratio = specfun.bessel_j_ratio(problem.d / 2.0 - 1.0, tau * problem.a)
    f_val = k + 1j * tau * ratio - 1j * (problem.d - 3.0) / (2.0 * problem.a)
    return f_val, abs(f_val), [tau]


def _secular_fixed(problem: SecularProblem, k, refs, bits: int):
    """``_secular_eval`` at the exact k = (kx, ky, ks) on ints, ((re, im, den),
    [tau]) back: tau by ``_fixed_root``, R at the exact tau a by
    ``bessel_ratio_mp`` at bits - FIXED_GUARD, F over 2^ks 2^bits den g_den."""
    kx, ky, ks = k
    tr, ti = _fixed_root(k, specfun._exact(problem.c), refs[0], bits)
    a_num, a_den = problem.a.as_integer_ratio()
    re, im, den = specfun.bessel_ratio_mp(problem.d / 2.0 - 1.0, tr * a_num, ti * a_num,
                                          bits + a_den.bit_length() - 1,
                                          bits - specfun.FIXED_GUARD)
    g_num, g_den = ((problem.d - 3.0) / (2.0 * problem.a)).as_integer_ratio()
    scale = den * g_den  # i tau R = (-(tr im + ti re) + i (tr re - ti im)) / (2^bits den)
    return ((((kx * scale) << bits) - ((tr * im + ti * re) * g_den << ks),
             ((ky * scale) << bits) + ((tr * re - ti * im) * g_den << ks)
             - (g_num * den << bits + ks), scale << bits + ks), [(tr, ti)])


def _secular_scale(problem: SecularProblem, k: complex) -> float:
    """Phase |tau| a of the interior Bessel profile at wavenumber k."""
    return abs(k * k - problem.c) ** 0.5 * problem.a


def secular_residual(problem: SecularProblem, k: complex) -> complex:
    """Residual of the radial matching condition at wavenumber k.

    F(k) = 0 exactly when the interior Bessel branch and the decaying
    exterior branch of the radial solution agree in value and derivative
    at r = a, i.e. when mu = k^2 is an eigenvalue.
    """
    k = complex(k)
    bits = specfun.solve_bits(_secular_scale(problem, k))
    if bits is None:
        return _secular_eval(problem, k, [problem.branch_ref])[0]
    ref = specfun._fixed_pair(problem.branch_ref, bits)
    return specfun._rounded(*_secular_fixed(problem, specfun._exact(k), [ref], bits)[0])


def refine_eigen(problem: SecularProblem, k_seed: complex) -> EigenResult:
    """Polish a seed wavenumber to a secular root.

    Converged means |F(k)| <= 1e-10 and a last step below 1e-12 (1+|k|).
    Convergence into Im k <= 0 is reported as WrongSheetError since such a
    root carries no decaying eigenfunction.
    """
    k_seed = complex(k_seed)
    if not cmath.isfinite(k_seed) or not math.isfinite(abs(secular_residual(problem, k_seed))):
        raise InvalidArgumentError("seed must give a finite residual")
    k_root, residual = polish_root_mp(problem, k_seed)
    k = complex(k_root)
    if k.imag <= 0.0:
        raise WrongSheetError("converged to Im k = %g <= 0" % k.imag)
    return eigen_result(k, residual, "secular")


def polish_root_mp(problem: SecularProblem, k_seed: complex):
    """Newton on the secular function at the bits its phase needs: (k,
    residual), k an ``OffsetK`` where the Bessel argument lies beyond
    double phase resolution."""
    k0 = complex(k_seed)
    return _solve(_secular_scale(problem, k0), functools.partial(_secular_eval, problem),
                  functools.partial(_secular_fixed, problem), k0, [problem.branch_ref])


# ---------------------------------------------------------------------------
# 1-d transfer matrix

def _intervals(potential: StepPotential1D):
    """Bounded intervals (length, value) swept by the propagation."""
    bps = potential.breakpoints
    out = []
    if potential.boundary == "robin":
        out.append((bps[0], 0.0 + 0.0j))
    for j in range(len(bps) - 1):
        out.append((bps[j + 1] - bps[j], potential.values[j]))
    return out


def _transfer_eval(potential: StepPotential1D, k, refs):
    """Scaled secular value s(k); s = 0 forces decay on both ends (whole
    line) or the Robin condition at 0 plus decay at +infinity."""
    if potential.boundary == "whole":
        f = complex(1.0)
        fp = -1j * k
    else:
        f = complex(math.cos(potential.phi))
        fp = complex(-math.sin(potential.phi))
    new_refs = []
    for (length, value), ref in zip(_intervals(potential), refs):
        kappa = _branch_sqrt(k * k - value, ref)
        new_refs.append(kappa)
        e2 = cmath.exp(2j * kappa * length)
        m11 = (1.0 + e2) / 2.0
        m12 = (e2 - 1.0) / (2j * kappa)
        m21 = (1j * kappa / 2.0) * (e2 - 1.0)
        f, fp = m11 * f + m12 * fp, m21 * f + m11 * fp
    f_val = f - fp / (1j * k)
    return f_val, abs(f_val), new_refs


@functools.lru_cache(maxsize=8)
def _exact_intervals(potential: StepPotential1D):
    """``_intervals`` on exact ints, per potential: (_exact(value), _exact(2 L))."""
    return tuple((specfun._exact(value), specfun._exact(complex(2.0 * length)))
                 for length, value in _intervals(potential))


def _transfer_fixed(potential: StepPotential1D, k, refs, bits: int):
    """``_transfer_eval`` at the exact k = (kx, ky, ks) on (re, im) int pairs
    over 2^bits: kappa by ``_fixed_root``, e^{2i kappa L} by libmp (OverflowError
    past the double range, as cmath.exp); ((re, im, 2^bits), refs) back."""
    kx, ky, ks = k
    one, mul = 1 << bits, functools.partial(specfun._fixed_mul, bits=bits)
    f, fp = (one, 0), ((ky << bits) >> ks, (-kx << bits) >> ks)
    if potential.boundary == "robin":
        f, fp = ((specfun._fixed(math.cos(potential.phi), bits), 0),
                 (specfun._fixed(-math.sin(potential.phi), bits), 0))
    new_refs = []
    for (value, (lx, _, ls)), ref in zip(_exact_intervals(potential), refs):
        kr, ki = _fixed_root(k, value, ref, bits)
        new_refs.append((kr, ki))
        rate, e2 = -ki * lx / (1 << bits + ls), (0, 0)  # 2 kappa L = kappa lx / 2^ls
        if rate > -bits:  # else |e2| = e^rate < 2^-bits floors to 0
            math.exp(rate)  # raises OverflowError past the double range
            arg = tuple(libmp.from_man_exp(v * lx, -bits - ls) for v in (-ki, kr))
            e2 = tuple(libmp.to_fixed(v, bits) for v in libmp.mpc_exp(arg, bits, "n"))
        d, norm = (e2[0] - one, e2[1]), 2 * (kr * kr + ki * ki)
        m11 = ((e2[0] + one) >> 1, e2[1] >> 1)
        m12 = (((kr * d[1] - ki * d[0]) << bits) // norm,
               ((-kr * d[0] - ki * d[1]) << bits) // norm)
        m21 = specfun._fixed_mul((-ki, kr), d, bits + 1)
        f, fp = [tuple(x + y for x, y in zip(mul(u, f), mul(v, fp)))
                 for u, v in ((m11, m12), (m21, m11))]
    norm = kx * kx + ky * ky  # F = f - fp/(ik), 1/(ik) = (-ky - i kx) 2^ks / |k|^2
    fp_ik = mul(fp, ((-ky << bits + ks) // norm, (-kx << bits + ks) // norm))
    return (f[0] - fp_ik[0], f[1] - fp_ik[1], one), new_refs


def _phase_scale(potential: StepPotential1D, k_seed: complex) -> float:
    if potential.boundary == "robin":
        span = potential.breakpoints[-1]
    else:
        span = potential.breakpoints[-1] - potential.breakpoints[0]
    k2 = k_seed * k_seed
    kmax = max([abs(k_seed)] + [abs(k2 - v) ** 0.5 for v in potential.values])
    return kmax * span


def transfer_eigen_1d(potential: StepPotential1D, k_seed: complex) -> EigenResult:
    """Newton-polish the transfer secular function from a seed wavenumber."""
    k_root, residual = _transfer_newton(potential, k_seed)
    k = complex(k_root)
    if k.imag <= 0.0:
        raise WrongSheetError("transfer root has Im k = %g <= 0" % k.imag)
    return eigen_result(k, residual, "transfer")


def _transfer_newton(potential: StepPotential1D, k_seed: complex):
    """Shared solver core: (k, residual) of ``_solve``."""
    k_seed = complex(k_seed)
    if not k_seed.imag > 0.0:
        raise InvalidArgumentError("transfer seed needs Im k > 0")
    refs = [specfun.upper_sqrt(k_seed * k_seed - v) for (_, v) in _intervals(potential)]
    return _solve(_phase_scale(potential, k_seed), functools.partial(_transfer_eval, potential),
                  functools.partial(_transfer_fixed, potential), k_seed, refs)


# ---------------------------------------------------------------------------
# finite-difference grid oracle

def tail_margin(k: complex) -> float:
    """Distance over which the decaying tail e^{ik|x|} falls below 1e-8."""
    return math.log(1e8) / k.imag


def _cell_values(potential: StepPotential1D, xs: np.ndarray, h: float) -> np.ndarray:
    """Cell averages of the potential over [x - h/2, x + h/2].

    Point sampling of a step potential carries an O(h) error wherever a
    breakpoint falls inside a cell, which would spoil the h^2 Richardson
    extrapolation; averaging the exact integral restores second order.
    """
    import numpy as np

    bps = np.asarray(potential.breakpoints)
    vals = np.asarray(potential.values, dtype=complex)
    edges = np.concatenate(([xs[0] - h / 2.0], xs + h / 2.0))
    out = np.zeros(len(xs), dtype=complex)
    for j, v in enumerate(vals):
        if v == 0:
            continue
        lo = np.clip(bps[j], edges[:-1], edges[1:])
        hi = np.clip(bps[j + 1], edges[:-1], edges[1:])
        out += v * (hi - lo) / h
    return out


def _has_ghost(potential: StepPotential1D) -> bool:
    """Whether the FD grid carries a node at x_lo (a Robin ghost row)."""
    return (potential.boundary == "robin"
            and abs(potential.phi - math.pi / 2.0) >= 1e-14)


@functools.lru_cache(maxsize=2)
def _fd_operator(potential: StepPotential1D, x_lo: float, x_hi: float, n: int):
    """Tridiagonal finite-difference form of H on [x_lo, x_hi].

    Second-order differences on cell-averaged values, Dirichlet truncation
    at both cut ends.  A Robin potential is gridded from x_lo = 0, and
    unless phi = pi/2 (Dirichlet) its condition
    cos(phi) f'(0) + sin(phi) f(0) = 0 enters through a ghost node
    eliminated into the first row.  The nodes are x_lo + j h, h =
    (x_hi - x_lo)/(n + 1), for j = 1..n, or j = 0..n with the ghost node.
    Returns (lower, main, upper, h).

    Only the shift z changes across a resolvent sweep, so the operator is
    built once per grid and shared: the cache keeps the last two grids
    (a sweep's coarse n and fine 2n + 1, at most ~16 MB at GRID_POINT_CAP),
    and the three diagonals are read-only.
    """
    import numpy as np

    h = (x_hi - x_lo) / (n + 1)
    ghost = _has_ghost(potential)
    xs = x_lo + h * np.arange(0 if ghost else 1, n + 1)
    vals = _cell_values(potential, xs, h)
    main = 2.0 / h ** 2 + vals
    lower = np.full(len(xs) - 1, -1.0 / h ** 2, dtype=complex)
    upper = lower.copy()
    if ghost:
        main[0] = (2.0 - 2.0 * h * math.tan(potential.phi)) / h ** 2 + vals[0]
        upper[0] = -2.0 / h ** 2
    for diagonal in (lower, main, upper):
        diagonal.flags.writeable = False
    return lower, main, upper, h


@functools.lru_cache(maxsize=2)
def _unit_ramp(length: int) -> np.ndarray:
    """The normalised ramp linspace(1, 2, length), complex: the cold start
    of ``grid_sigma_min``, cached per length like the grid's operator and
    read-only."""
    import numpy as np

    ramp = np.linspace(1.0, 2.0, length).astype(complex)
    ramp /= np.linalg.norm(ramp)
    ramp.flags.writeable = False
    return ramp


def _fd_grid_vector(potential: StepPotential1D, n: int,
                    vector: np.ndarray) -> np.ndarray:
    """A node vector for the FD grid of n intervals' layout (``_fd_operator``).

    A vector with the grid's own node count is returned as is.  A vector on
    the nested coarse grid ((n - 1)/2, whose h is twice as long, so its
    nodes are every other fine node) is prolonged linearly: fine nodes
    between two coarse ones take their mean, with the Dirichlet cuts read
    as zero.  That maps n_c nodes to 2 n_c + 1, or n_c + 1 ghost-layout
    nodes to 2 n_c + 2.  Any other length raises InvalidArgumentError.
    """
    import numpy as np

    ghost = int(_has_ghost(potential))
    vector = np.asarray(vector, dtype=complex)
    if len(vector) == n + ghost:
        return vector
    coarse = (n - 1) // 2 + ghost if n % 2 else None
    if len(vector) != coarse:
        raise InvalidArgumentError(
            "start vector has %d nodes; this grid has %d, its nested coarse "
            "grid %s" % (len(vector), n + ghost, coarse))
    lead = () if ghost else (0.0,)
    ext = np.concatenate((lead, vector, (0.0,)))
    fine = np.empty(2 * len(ext) - 1, dtype=complex)
    fine[::2] = ext
    fine[1::2] = 0.5 * (ext[:-1] + ext[1:])
    return fine[len(lead):-1]


def _fd_lu(potential: StepPotential1D, x_lo: float, x_hi: float, n: int,
           z: complex):
    """LAPACK zgttrf factors of the tridiagonal FD form of H - z; raises
    SingularShiftError when H - z is exactly singular on the grid.  The
    shared operator is only read: zgttrf copies the two off-diagonals and
    factors the fresh main - z in place."""
    # numpy and scipy are imported in the grid functions, not at module
    # level: desk runs never touch the grid, and a fresh import of
    # scipy.linalg, numpy included, takes ~0.4 s on 2 vCPU
    import scipy.linalg.lapack

    lower, main, upper, _ = _fd_operator(potential, x_lo, x_hi, n)
    *factors, info = scipy.linalg.lapack.zgttrf(lower, main - complex(z), upper,
                                                overwrite_d=1)
    if info != 0:
        raise SingularShiftError("H - z is singular on the grid (info %d)" % info)
    return factors


def _fd_nearest(potential: StepPotential1D, x_lo: float, x_hi: float, n: int,
                target: complex) -> complex:
    """The eigenvalue of the FD discretisation nearest the target: target +
    1/theta for the largest eigenvalue theta of (H - target)^-1, through one
    tridiagonal LU from a fixed, deterministic start (the normalised ones
    vector).

    Inverse iteration runs first: each step is one solve with the LU and
    the estimate mu = target + 1/(v^H u).  When the target sits close to an
    isolated eigenvalue, every step shrinks the other components by the
    ratio of their distances to the target, and mu settles within a few
    steps.  It is returned once two consecutive estimates agree to
    INVERSE_TOL |mu|.  If they still differ after INVERSE_STEP_CAP steps, or
    v^H u is zero or not finite, ARPACK's shift-invert Arnoldi decides
    instead.  ARPACK stays because it answers where inverse iteration
    cannot: when the nearest eigenvalue does not dominate the rest, as for
    the box modes of a cut continuum.
    """
    import numpy as np
    import scipy.linalg.lapack

    target = complex(target)
    factors = _fd_lu(potential, x_lo, x_hi, n, target)
    m = len(factors[1])
    v0 = np.ones(m, dtype=complex) / math.sqrt(m)
    v, mu_prev = v0, None
    for _ in range(INVERSE_STEP_CAP):
        u, _ = scipy.linalg.lapack.zgttrs(*factors, v)
        theta = complex(np.vdot(v, u))
        if theta == 0 or not cmath.isfinite(theta):
            break
        mu = target + 1.0 / theta
        if mu_prev is not None and abs(mu - mu_prev) <= INVERSE_TOL * abs(mu):
            return mu
        mu_prev = mu
        v = u / np.linalg.norm(u)

    import scipy.sparse.linalg

    inverse = scipy.sparse.linalg.LinearOperator(
        (m, m), matvec=lambda v: scipy.linalg.lapack.zgttrs(*factors, v)[0],
        dtype=complex)
    # ARPACK's default basis (ncv = 20): the nearest eigenvalue of a cut
    # continuum need not dominate, and with ncv = 4 the zero potential
    # never converges
    theta = scipy.sparse.linalg.eigs(inverse, k=1, v0=v0,
                                     return_eigenvectors=False)[0]
    return target + 1.0 / complex(theta)


def grid_layout(potential: StepPotential1D, target: complex):
    """Domain and resolution of the grid that resolves eigenvalues near
    the target: (x_lo, x_hi, n) with tails cut below 1e-8 and 150 points
    per wavelength.

    Raises GridResolutionError when the fine grid of the two-resolution
    pair (2n + 1 points) would exceed the cap.
    """
    margin = tail_margin(specfun.upper_sqrt(target))
    bps = potential.breakpoints
    x_lo = bps[0] - margin if potential.boundary == "whole" else 0.0
    x_hi = bps[-1] + margin
    vmax = max([0.0] + [abs(v) for v in potential.values])
    k_scale = math.sqrt(abs(target) + vmax) + 1.0
    h0 = 2.0 * math.pi / (k_scale * 150.0)
    n = int(math.ceil((x_hi - x_lo) / h0))
    if 2 * n + 1 > GRID_POINT_CAP:
        raise GridResolutionError(
            "grid would need %d points (cap %d); domain [%g, %g] too long"
            % (2 * n + 1, GRID_POINT_CAP, x_lo, x_hi))
    return x_lo, x_hi, n


def grid_oracle_1d(potential: StepPotential1D, target: complex,
                   radius: float) -> list:
    """The discrete eigenvalue nearest the target, Richardson-extrapolated
    over two grid resolutions with an error estimate: a one-entry list when
    it lies inside B(target, radius), empty when it lies clearly outside.
    Other eigenvalues in the disk (box modes of the cut continuum) are not
    sought.

    Raises GridResolutionError when the truncated domain would need more
    points than the cap, when disk membership is undecidable at this
    resolution, or when the two resolutions disagree by more than radius/10.
    """
    target = complex(target)
    if not target.imag < 0.0:
        raise InvalidArgumentError("grid oracle expects Im target < 0")
    if not radius > 0.0:
        raise InvalidArgumentError("radius must be positive")
    x_lo, x_hi, n = grid_layout(potential, target)
    mu_c = _fd_nearest(potential, x_lo, x_hi, n, target)
    mu_f = _fd_nearest(potential, x_lo, x_hi, 2 * n + 1, target)
    disc = abs(mu_f - mu_c)
    dist = abs(mu_f - target)
    if dist > radius + 10.0 * disc:
        return []  # clearly outside the disk
    if dist > radius:
        # inside-the-disk membership is not decidable at this resolution
        raise GridResolutionError(
            "eigenvalue at distance %.3e from the target cannot be "
            "resolved against radius %.3e (grid discrepancy %.3e)"
            % (dist, radius, disc))
    if disc > radius / 10.0:
        raise GridResolutionError(
            "two-resolution discrepancy %.3e exceeds radius/10" % disc)
    mu_r = mu_f + (mu_f - mu_c) / 3.0  # h^2 -> h^2/4 extrapolation
    # the h^2 coefficient depends on where the step edges fall inside
    # their cells, which differs between the two grids; the full
    # discrepancy (not the clean-h^2 third of it) covers the residue
    err = max(disc, 1e-14)
    return [eigen_result(specfun.upper_sqrt(mu_r), err, "grid")]


def grid_sigma_min(potential: StepPotential1D, z: complex, x_lo: float,
                   x_hi: float, n: int, start=None) -> tuple[float, np.ndarray]:
    """Smallest singular value of the FD discretisation of (H - z) on the
    truncated domain [x_lo, x_hi], with its right singular vector.

    Lanczos on the inverse normal operator B = (A^H A)^-1 = A^-1 A^-H,
    A = H - z on the grid (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 13; Golub & Van Loan, *Matrix Computations*, 10.1): each
    application of B is the two solves of the one tridiagonal LU of H - z
    (``_fd_lu``, on the grid's shared operator), and 1/sigma_min estimates
    the resolvent norm on the grid.  The three-term recurrence
    orthogonalises each new vector against the two before it only.  The
    basis, SIGMA_BASIS vectors and the one being formed, is allocated once
    per call, and a full basis restarts.

    sigma = 1/sqrt(theta) for the largest Ritz value theta of the k x k
    tridiagonal.  theta never exceeds 1/sigma_min^2, so sigma is never below
    sigma_min.  The iteration stops once the Ritz residual
    ||B y - theta y|| = beta_k |s_k| satisfies
    (beta_k |s_k|)^2 <= 2 SIGMA_TOL theta^2 (for k = 1, to first order, the
    power step's ||Bv|| - v^H B v <= SIGMA_TOL ||Bv||), and raises
    NoConvergenceError after SIGMA_ITER_CAP applications of B.

    Returns (sigma, vector).  The vector is B y = theta y + s_k r_k,
    normalised: the Ritz vector y advanced by one application of B, which
    the recurrence's last residual r_k gives without a solve and which
    damps the components along the large singular values that y keeps.  A
    restart starts from the same vector.  It lives on this grid's nodes,
    belongs to the caller and shares no memory with ``start``, which is
    left as it was.

    The cold start vector is a ramp, which is neither even nor odd, so a
    mirror-symmetric operator cannot hide its smallest singular vector
    from the iteration.  A warm ``start`` (the vector of a nearby shift,
    on this grid or on its nested coarse grid, see ``_fd_grid_vector``)
    is normalised and 1e-2 times the unit ramp is added: the start may
    have converged to one mirror class, and without the ramp term the
    other class, which may hold the smallest singular vector at this z,
    would stay out of reach.

    Raises SingularShiftError when H - z is exactly singular and
    InvalidArgumentError for a start of any other length.
    """
    import numpy as np
    import scipy.linalg.lapack

    if start is not None:
        start = _fd_grid_vector(potential, n, start)
        scale = float(np.linalg.norm(start))
        if not (scale > 0.0 and math.isfinite(scale)):
            raise InvalidArgumentError("start vector must be finite and nonzero")
    factors = _fd_lu(potential, x_lo, x_hi, n, z)
    ramp = _unit_ramp(len(factors[1]))
    basis = np.empty((SIGMA_BASIS + 1, len(ramp)), dtype=complex)
    if start is None:
        basis[0] = ramp
    else:
        basis[0] = start / scale + 1e-2 * ramp
        basis[0] *= 1.0 / np.linalg.norm(basis[0])
    alpha, beta = [], []
    for _ in range(SIGMA_ITER_CAP):
        k = len(alpha)
        q, w = basis[k], basis[k + 1]
        w[:] = q
        scipy.linalg.lapack.zgttrs(*factors, w, trans="C", overwrite_b=1)
        scipy.linalg.lapack.zgttrs(*factors, w, overwrite_b=1)
        if k:
            w -= beta[-1] * basis[k - 1]
        alpha.append(np.vdot(q, w).real)
        w -= alpha[-1] * q
        beta.append(math.sqrt(np.vdot(w, w).real))
        # dstev reads k off-diagonals of the (k + 1)-square tridiagonal;
        # its wrapper wants at least one
        thetas, ritz, info = scipy.linalg.lapack.dstev(alpha, beta[:max(k, 1)])
        if info != 0:
            raise NoConvergenceError("sigma_min Lanczos: dstev failed (info %d)"
                                     % info)
        theta, s = float(thetas[-1]), ritz[:, -1]
        done = (beta[-1] * s[-1]) ** 2 <= 2.0 * SIGMA_TOL * theta ** 2
        if done or k + 1 == SIGMA_BASIS:
            y = s @ basis[:k + 1]
            y += (s[-1] / theta) * w  # B y / theta
            y *= 1.0 / np.linalg.norm(y)
            if done:
                return 1.0 / math.sqrt(theta), y
            basis[0] = y
            alpha, beta = [], []
        else:
            # numpy divides a complex array by a real scalar as this
            # product, and the product alone is several times faster
            w *= 1.0 / beta[-1]
    raise NoConvergenceError("sigma_min Lanczos: Ritz residual still above "
                             "tolerance after %d steps" % SIGMA_ITER_CAP)
