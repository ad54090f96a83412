"""Independent locators and verifiers for complex eigenvalues.

Three routes that share as little code as possible:

  * a secular-equation residual F(k) for single radial bumps in any
    dimension, with Newton polishing and an argument-principle zero
    counter,
  * an exact 2x2 transfer-matrix solver for 1-d step potentials on the
    whole line and the Robin half-line,
  * a finite-difference grid oracle for 1-d cross-validation: the grid
    eigenvalue nearest a target, by Arnoldi on one tridiagonal LU, with
    Richardson extrapolation over two resolutions.

Wavenumbers live in the upper half-plane (Im k > 0 encodes decay), and
every square root sqrt(k^2 - c) is tracked continuously from a reference
value so Newton paths never hop branches.  Transfer propagation rescales
each interval by the analytic factor e^{i kappa L}; this tames the
exponential growth of the decaying solution without breaking the complex
differentiability Newton relies on.  Every solve picks its arithmetic
from its accumulated phase through ``specfun.lane``: beyond ~3e4 radians
double argument reduction would drown the 1e-10 residual tolerance, so
such solves run at scaled arbitrary precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (AccuracyError, BranchError, ContourError,
                     GridResolutionError, InvalidArgumentError,
                     NoConvergenceError, PoleError, WrongSheetError)

SECULAR_TOL = 1e-10
STEP_TOL = 1e-12
NEWTON_CAP = 50
GRID_POINT_CAP = 220_000
SIGMA_TOL = 1e-12
SIGMA_ITER_CAP = 1000


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

    def value_at(self, x: float) -> complex:
        idx = int(np.searchsorted(self.breakpoints, x, side="right"))
        if idx == 0 or idx == len(self.breakpoints):
            return 0.0 + 0.0j
        return self.values[idx - 1]


# ---------------------------------------------------------------------------
# branch-tracked square roots

def _branch_sqrt(w, ref, sqrt_fn):
    s = sqrt_fn(w)
    if abs(s - ref) > abs(-s - ref):
        s = -s
    return s


# ---------------------------------------------------------------------------
# secular equation for a single radial bump

def _secular_eval(problem: SecularProblem, k, tau_ref, ops):
    """F(k) and the tracked tau; F = k + i tau R(tau a) - i(d-3)/(2a)."""
    tau = _branch_sqrt(k * k - ops.lift(problem.c), tau_ref, ops.sqrt)
    order = problem.d / 2.0 - 1.0
    ratio = ops.bessel_ratio(order, tau * problem.a)
    f_val = k + 1j * tau * ratio - 1j * (problem.d - 3.0) / (2.0 * problem.a)
    return f_val, tau


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
    with specfun.lane(_secular_scale(problem, k)) as ops:
        f_val, _ = _secular_eval(problem, ops.lift(k), ops.lift(problem.branch_ref),
                                 ops)
        return complex(f_val)


def _newton(f_eval, k0, ops, steep_scale: float, tol_f: float = SECULAR_TOL,
            tol_dk: float = STEP_TOL, cap: int = NEWTON_CAP):
    """Damped-free Newton with numerically differenced derivative.

    The derivative step shrinks with the oscillation scale of the secular
    function (resonances sit ~pi/steep_scale apart in k), so probing never
    averages across neighbouring roots.
    """
    k = k0
    dk_last = 0.0
    trace = []
    for _ in range(cap):
        try:
            f_k = f_eval(k)
            af = abs(f_k)
            trace.append((ops.to_c(k), float(af)))
            if af <= tol_f and dk_last <= tol_dk * (1.0 + abs(ops.to_c(k))):
                return k, float(af), trace
            h = (1.0 + abs(ops.to_c(k))) * min(1e-6, 0.3 / max(1.0, steep_scale))
            deriv = (f_eval(k + h) - f_eval(k - h)) / (2.0 * h)
        except (OverflowError, ZeroDivisionError, AccuracyError, PoleError) as exc:
            raise NoConvergenceError("iteration left the evaluable region: %s"
                                     % exc, trace=trace) from exc
        if deriv == 0:
            raise NoConvergenceError("zero numerical derivative", trace=trace)
        step = -f_k / deriv
        k = k + step
        dk_last = abs(ops.to_c(step))
        if not math.isfinite(abs(ops.to_c(k))):
            raise NoConvergenceError("iterate diverged", trace=trace)
    raise NoConvergenceError("newton cap %d exceeded" % cap, trace=trace)


def refine_eigen(problem: SecularProblem, k_seed: complex) -> EigenResult:
    """Polish a seed wavenumber to a secular root.

    Converged means |F(k)| <= 1e-10 and a last step below 1e-12 (1+|k|).
    Convergence into Im k <= 0 is reported as WrongSheetError since such a
    root carries no decaying eigenfunction.
    """
    k_seed = complex(k_seed)
    if not _finite_c(k_seed) or not math.isfinite(abs(secular_residual(problem, k_seed))):
        raise InvalidArgumentError("seed must give a finite residual")
    k_root, residual = polish_root_mp(problem, k_seed)
    k = complex(k_root)
    if k.imag <= 0.0:
        raise WrongSheetError("converged to Im k = %g <= 0" % k.imag)
    return eigen_result(k, residual, "secular")


def polish_root_mp(problem: SecularProblem, k_seed: complex):
    """Newton on the secular function in the lane its phase needs.

    Returns (k in lane arithmetic, residual): an mpmath.mpc for bumps whose
    radius puts the Bessel argument beyond double phase resolution.
    """
    k0 = complex(k_seed)
    scale = _secular_scale(problem, k0)
    with specfun.lane(scale) as ops:
        state = {"ref": ops.lift(problem.branch_ref)}

        def f_eval(k):
            f_val, tau = _secular_eval(problem, k, state["ref"], ops)
            state["ref"] = tau
            return f_val

        k, residual, _ = _newton(f_eval, ops.lift(k0), ops, steep_scale=scale)
        return k, residual


def count_zeros(problem: SecularProblem, rect) -> int:
    """Winding number of the secular function around a rectangle.

    ``rect`` is a pair of opposite corners in the k-plane.  The argument
    is marched adaptively (segments split until each phase increment is
    below pi/2), which is the discrete form of integrating F'/F.  Raises
    ContourError when the contour passes too close to a zero and
    BranchError if tau fails to return to its starting branch.
    """
    z_a, z_b = complex(rect[0]), complex(rect[1])
    xs = sorted((z_a.real, z_b.real))
    ys = sorted((z_a.imag, z_b.imag))
    if xs[0] == xs[1] or ys[0] == ys[1]:
        raise InvalidArgumentError("rectangle is degenerate")
    corners = [complex(xs[0], ys[0]), complex(xs[1], ys[0]),
               complex(xs[1], ys[1]), complex(xs[0], ys[1])]

    pts = []
    per_side = 16
    for i in range(4):
        start, end = corners[i], corners[(i + 1) % 4]
        for j in range(per_side):
            pts.append(start + (end - start) * (j / per_side))
    pts.append(pts[0])

    # the corners bound the phase |tau| a along the contour closely enough
    # to pick the lane
    with specfun.lane(max(_secular_scale(problem, z) for z in corners)) as ops:
        nodes = []
        ref = ops.lift(problem.branch_ref)
        for z in pts:
            f_val, ref = _secular_eval(problem, ops.lift(z), ref, ops)
            nodes.append([z, ops.to_c(f_val), ref])

        # adaptive refinement: split any segment whose phase jump is >= pi/2
        guard = 0
        i = 0
        while i < len(nodes) - 1:
            f1, f2 = nodes[i][1], nodes[i + 1][1]
            if f1 == 0 or f2 == 0:
                raise ContourError("contour passes through a zero; inflate the box")
            if abs(cmath.phase(f2 / f1)) < math.pi / 2:
                i += 1
                continue
            guard += 1
            if guard > 20000:
                raise ContourError("contour refinement did not settle; "
                                   "a zero may sit on the box; inflate it")
            z_mid = 0.5 * (nodes[i][0] + nodes[i + 1][0])
            f_mid, ref_mid = _secular_eval(problem, ops.lift(z_mid), nodes[i][2], ops)
            nodes.insert(i + 1, [z_mid, ops.to_c(f_mid), ref_mid])

        mags = sorted(abs(n[1]) for n in nodes)
        if mags[0] < 1e-9 * mags[len(mags) // 2]:
            raise ContourError("min |F| on contour is %.3e; inflate the box" % mags[0])
        if abs(nodes[-1][2] - nodes[0][2]) > 1e-6 * (1.0 + abs(nodes[0][2])):
            raise BranchError("tau did not return to its starting branch; "
                              "the contour crosses the sqrt cut")

    total = 0.0
    for i in range(len(nodes) - 1):
        total += cmath.phase(nodes[i + 1][1] / nodes[i][1])
    winding = total / (2.0 * math.pi)
    if abs(winding - round(winding)) > 0.2:
        raise ContourError("winding number %.3f is not close to an integer" % winding)
    return int(round(winding))


# ---------------------------------------------------------------------------
# 1-d transfer matrix

def step_matrix(k: complex, value: complex, length: float) -> np.ndarray:
    """Unscaled transfer matrix of one constant step in the (f, f') basis.

    All entries are even in kappa = sqrt(k^2 - value), so no branch choice
    is involved, and the determinant is exactly 1.  Diagnostic form; the
    solver itself propagates the e^{i kappa L}-scaled variant.
    """
    kappa = specfun.upper_sqrt(k * k - complex(value))
    kl = kappa * length
    if kappa == 0:
        return np.array([[1.0, length], [0.0, 1.0]], dtype=complex)
    return np.array([[cmath.cos(kl), cmath.sin(kl) / kappa],
                     [-kappa * cmath.sin(kl), cmath.cos(kl)]], dtype=complex)


def _intervals(potential: StepPotential1D):
    """Bounded intervals (length, value) swept by the propagation."""
    bps = potential.breakpoints
    out = []
    if potential.boundary == "robin":
        out.append((bps[0], 0.0 + 0.0j))
    for j in range(len(bps) - 1):
        out.append((bps[j + 1] - bps[j], potential.values[j]))
    return out


def _transfer_eval(potential: StepPotential1D, k, refs, ops):
    """Scaled secular value s(k); s = 0 forces decay on both ends (whole
    line) or the Robin condition at 0 plus decay at +infinity."""
    if potential.boundary == "whole":
        f = ops.lift(1.0)
        fp = -1j * k
    else:
        f = ops.lift(math.cos(potential.phi))
        fp = ops.lift(-math.sin(potential.phi))
    new_refs = []
    for (length, value), ref in zip(_intervals(potential), refs):
        kappa = _branch_sqrt(k * k - ops.lift(value), ref, ops.sqrt)
        new_refs.append(kappa)
        e2 = ops.exp(2j * kappa * length)
        m11 = (1.0 + e2) / 2.0
        m12 = (e2 - 1.0) / (2j * kappa)
        m21 = (1j * kappa / 2.0) * (e2 - 1.0)
        f, fp = m11 * f + m12 * fp, m21 * f + m11 * fp
    return f - fp / (1j * k), new_refs


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
    k_mp, residual = _transfer_newton(potential, k_seed)
    k = complex(k_mp)
    if k.imag <= 0.0:
        raise WrongSheetError("transfer root has Im k = %g <= 0" % k.imag)
    return eigen_result(k, residual, "transfer")


def _transfer_newton(potential: StepPotential1D, k_seed: complex):
    """Shared solver core; returns (k in lane arithmetic, residual)."""
    k_seed = complex(k_seed)
    if not k_seed.imag > 0.0:
        raise InvalidArgumentError("transfer seed needs Im k > 0")
    scale = _phase_scale(potential, k_seed)
    with specfun.lane(scale) as ops:
        state = {"refs": [ops.lift(specfun.upper_sqrt(k_seed * k_seed - v))
                          for (_, v) in _intervals(potential)]}

        def f_eval(k):
            s_val, new_refs = _transfer_eval(potential, k, state["refs"], ops)
            state["refs"] = new_refs
            return s_val

        k, residual, _ = _newton(f_eval, ops.lift(k_seed), ops, steep_scale=scale)
        return k, residual


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


def _fd_operator(potential: StepPotential1D, x_lo: float, x_hi: float, n: int):
    """Tridiagonal finite-difference form of H on [x_lo, x_hi].

    Second-order differences on cell-averaged values, Dirichlet truncation
    at both cut ends.  A Robin potential is gridded from x_lo = 0, and
    unless phi = pi/2 (Dirichlet) its condition
    cos(phi) f'(0) + sin(phi) f(0) = 0 enters through a ghost node
    eliminated into the first row.  The nodes are x_lo + j h, h =
    (x_hi - x_lo)/(n + 1), for j = 1..n, or j = 0..n with the ghost node.
    Returns (lower, main, upper, h).
    """
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
    return lower, main, upper, h


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
    LinAlgError when H - z is exactly singular on the grid."""
    # scipy is imported in the grid functions, not at module level: desk
    # runs never touch the grid, and scipy.linalg adds ~0.4 s to every
    # command's start
    import scipy.linalg.lapack

    lower, main, upper, _ = _fd_operator(potential, x_lo, x_hi, n)
    *factors, info = scipy.linalg.lapack.zgttrf(lower, main - complex(z), upper)
    if info != 0:
        raise np.linalg.LinAlgError("H - z is singular on the grid (info %d)" % info)
    return factors


def _fd_nearest(potential: StepPotential1D, x_lo: float, x_hi: float, n: int,
                target: complex) -> complex:
    """The eigenvalue of the FD discretisation nearest the target: target +
    1/theta for the largest eigenvalue theta of (H - target)^-1, found by
    Arnoldi through one tridiagonal LU from a fixed, deterministic start."""
    import scipy.linalg.lapack
    import scipy.sparse.linalg

    factors = _fd_lu(potential, x_lo, x_hi, n, target)
    m = len(factors[1])
    inverse = scipy.sparse.linalg.LinearOperator(
        (m, m), matvec=lambda v: scipy.linalg.lapack.zgttrs(*factors, v)[0],
        dtype=complex)
    v0 = np.ones(m, dtype=complex) / math.sqrt(m)
    # ARPACK's default basis (ncv = 20): the nearest eigenvalue of a cut
    # continuum need not dominate, and with ncv = 4 the zero potential
    # never converges
    theta = scipy.sparse.linalg.eigs(inverse, k=1, v0=v0,
                                     return_eigenvectors=False)[0]
    return complex(target) + 1.0 / complex(theta)


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
    if 2 * n > GRID_POINT_CAP:
        raise GridResolutionError(
            "grid would need %d points (cap %d); domain [%g, %g] too long"
            % (2 * n, GRID_POINT_CAP, x_lo, x_hi))
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
    k_val = specfun.upper_sqrt(mu_r)
    return [EigenResult(k=k_val, mu=k_val * k_val, residual=float(err),
                        method="grid")]


def grid_sigma_min(potential: StepPotential1D, z: complex, x_lo: float,
                   x_hi: float, n: int, start=None) -> tuple[float, np.ndarray]:
    """Smallest singular value of the FD discretisation of (H - z) on the
    truncated domain [x_lo, x_hi], with its right singular vector.

    Power iteration on the inverse normal operator, reusing the one
    tridiagonal LU of H - z (``_fd_lu``) for both solves of every step;
    1/sigma_min estimates the resolvent norm on the grid.  Returns
    (sigma, vector), the vector normalised on this grid's nodes.

    The cold start vector is a ramp, which is neither even nor odd, so a
    mirror-symmetric operator cannot hide its smallest singular vector
    from the iteration.  A warm ``start`` (the vector of a nearby shift,
    on this grid or on its nested coarse grid, see ``_fd_grid_vector``)
    is normalised and 1e-2 times the unit ramp is added: the start may
    have converged to one mirror class, and without the ramp term the
    other class, which may hold the smallest singular vector at this z,
    would stay out of reach.

    The growth never decreases; the iteration stops once it changes by at
    most SIGMA_TOL relative, and raises NoConvergenceError after
    SIGMA_ITER_CAP steps.  Raises LinAlgError when H - z is exactly
    singular and InvalidArgumentError for a start of any other length.
    """
    import scipy.linalg.lapack

    if start is not None:
        start = _fd_grid_vector(potential, n, start)
        scale = float(np.linalg.norm(start))
        if not (scale > 0.0 and math.isfinite(scale)):
            raise InvalidArgumentError("start vector must be finite and nonzero")
    factors = _fd_lu(potential, x_lo, x_hi, n, z)
    v = np.linspace(1.0, 2.0, len(factors[1])).astype(complex)
    v /= np.linalg.norm(v)
    if start is not None:
        v = start / scale + 1e-2 * v
        v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(SIGMA_ITER_CAP):
        w, _ = scipy.linalg.lapack.zgttrs(*factors, v, trans="C")
        u, _ = scipy.linalg.lapack.zgttrs(*factors, w)
        prev, growth = growth, float(np.linalg.norm(u))
        v = u / growth
        if growth - prev <= SIGMA_TOL * growth:
            return 1.0 / math.sqrt(growth), v
    raise NoConvergenceError("sigma_min power iteration: growth still moving "
                             "after %d steps" % SIGMA_ITER_CAP)


def _finite_c(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)
