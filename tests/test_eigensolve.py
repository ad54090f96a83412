"""Oracle solvers: secular, transfer-matrix and grid, plus cross-checks."""

import cmath
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg
from scipy.optimize import brentq

from eigenbump import bump as bumpmod
from eigenbump import construct, eigensolve, specfun
from eigenbump.eigensolve import (SecularProblem, StepPotential1D, _fd_nearest,
                                  _fd_grid_vector, _fd_operator, grid_layout,
                                  grid_oracle_1d, grid_sigma_min, refine_eigen,
                                  secular_residual, transfer_eigen_1d)
from eigenbump.errors import (GridResolutionError, InvalidArgumentError,
                              NoConvergenceError, SingularShiftError,
                              WrongSheetError)

from conftest import exact_mpc


def problem_for(params):
    return SecularProblem(d=params.d, c=params.c, a=params.a,
                          branch_ref=params.tau)


def single_bump_potential(params, t=0.0, boundary="whole", phi=0.0):
    return StepPotential1D((t - params.a, t + params.a), (params.c,),
                           boundary=boundary, phi=phi)


class TestSecular:
    def test_designed_bumps_are_roots(self, moderate_bumps):
        for params in moderate_bumps:
            res = secular_residual(problem_for(params), params.k)
            assert abs(res) <= 1e-10

    def test_d3_matches_cotangent_form(self):
        params = bumpmod.design_bump(3, 4.0, 1.0, 4.0, 4.0, 0.4)
        # c = 0: F = i k e^{-ika} / sin(ka), which has no zero off the origin
        free = SecularProblem(d=3, c=0.0, a=2.0, branch_ref=complex(1.0, 0.5))
        cases = [(problem_for(params), params.k + dk)
                 for dk in (0.0, 0.01 + 0.003j, -0.02j)]
        cases += [(free, k) for k in (0.3 + 0.1j, 1.4 + 1.05j, 2.5 + 2.0j)]
        for prob, k in cases:
            tau = cmath.sqrt(k * k - prob.c)
            if abs(tau - prob.branch_ref) > abs(tau + prob.branch_ref):
                tau = -tau
            want = k + 1j * tau * (cmath.cos(tau * prob.a)
                                   / cmath.sin(tau * prob.a))
            assert secular_residual(prob, k) == pytest.approx(want, rel=1e-10)

    def test_refine_converges_from_asymptotic_seed(self):
        for d in (1, 2, 3, 5):
            for lam in (0.5, 1.0, 2.0):
                params = bumpmod.design_bump(d, d + 1.0, lam, 6.0, 6.0, 0.45)
                if abs(params.tau) * params.a > 3e4:
                    continue  # keep this matrix in the native lane
                prob = problem_for(params)
                seed = complex(-params.nu, params.eta)
                got = refine_eigen(prob, seed)
                assert got.residual <= 1e-10
                assert abs(got.mu - params.mu) < 1e-8
                assert got.k.imag > 0.0

    def test_refine_fixed_point_at_root(self, moderate_bump):
        prob = problem_for(moderate_bump)
        got = refine_eigen(prob, moderate_bump.k)
        assert got.k == moderate_bump.k  # accepted before any step

    def test_refine_rejects_rootless_region(self, moderate_bump):
        prob = problem_for(moderate_bump)
        # far upper-right region: free-resolvent regime, no roots; the
        # iteration must not fabricate one
        with pytest.raises((NoConvergenceError, WrongSheetError)):
            refine_eigen(prob, complex(8.0, 6.0))

    def test_mu_derived_from_k(self, moderate_bump):
        res = refine_eigen(problem_for(moderate_bump), moderate_bump.k)
        assert res.mu == res.k * res.k
        assert res.method == "secular"


class TestTransfer:
    def test_agrees_with_secular_everywhere(self, moderate_bumps, rng):
        for params in moderate_bumps:
            t = float(rng.uniform(-20.0, 20.0))
            got = transfer_eigen_1d(single_bump_potential(params, t), params.k)
            assert got.residual <= 1e-10
            assert abs(got.mu - params.mu) <= 1e-8

    def test_textbook_negative_well(self):
        # even ground state of the unit well of depth 1:
        # sqrt(1-E) tan(sqrt(1-E)) = sqrt(E), mu = -E (independent bisection)
        def matching(e):
            return math.sqrt(1.0 - e) * math.tan(math.sqrt(1.0 - e)) - math.sqrt(e)
        e_root = brentq(matching, 0.3, 0.7, xtol=1e-14)
        pot = StepPotential1D((-1.0, 1.0), (-1.0,), boundary="whole")
        got = transfer_eigen_1d(pot, complex(0.0, math.sqrt(e_root)))
        assert got.mu == pytest.approx(-e_root, abs=1e-10)

    def test_robin_dirichlet_approaches_whole_line(self, moderate_bump):
        whole = transfer_eigen_1d(single_bump_potential(moderate_bump, 0.0),
                                  moderate_bump.k)
        gaps = []
        for t in (10.0 * moderate_bump.a, 20.0 * moderate_bump.a,
                  40.0 * moderate_bump.a):
            pot = single_bump_potential(moderate_bump, t, "robin", math.pi / 2.0)
            got = transfer_eigen_1d(pot, moderate_bump.k)
            gaps.append(abs(got.mu - whole.mu))
        assert gaps[0] < 1e-6
        assert gaps[1] <= gaps[0] and gaps[2] <= gaps[1]

    def test_robin_boundary_bound_state(self):
        # phi in (0, pi/2) carries the boundary bound state mu = -tan(phi)^2
        # even with no potential at all
        phi = 0.8
        pot = StepPotential1D((50.0, 51.0), (0.0,), boundary="robin", phi=phi)
        kappa = math.tan(phi)
        got = transfer_eigen_1d(pot, complex(0.0, kappa * 1.001))
        assert got.mu == pytest.approx(-kappa * kappa, rel=1e-9)

    def test_conjugation_symmetry(self, moderate_bumps):
        for params in moderate_bumps:
            pot = single_bump_potential(params, 3.0)
            conj_pot = StepPotential1D(pot.breakpoints,
                                       tuple(v.conjugate() for v in pot.values))
            base = transfer_eigen_1d(pot, params.k)
            mirrored = transfer_eigen_1d(conj_pot, -base.k.conjugate())
            assert mirrored.mu == pytest.approx(base.mu.conjugate(), abs=1e-10)

    def test_sheet_discipline(self, moderate_bump):
        got = transfer_eigen_1d(single_bump_potential(moderate_bump), moderate_bump.k)
        assert got.k.imag > 0.0 and got.mu.imag < 0.0

    def test_seed_needs_upper_half_plane(self, moderate_bump):
        with pytest.raises(InvalidArgumentError):
            transfer_eigen_1d(single_bump_potential(moderate_bump),
                              complex(1.0, -0.2))

    def test_extended_precision_lane_matches_native(self, moderate_bump):
        # same physical problem, pushed beyond NATIVE_MAX by a distant shift
        native = transfer_eigen_1d(single_bump_potential(moderate_bump, 0.0),
                                   moderate_bump.k)
        far = transfer_eigen_1d(single_bump_potential(moderate_bump, 2.0e5),
                                moderate_bump.k)
        assert far.mu == pytest.approx(native.mu, abs=1e-10)


@pytest.fixture(scope="module")
def desk_potentials():
    """(potential, entry seeds) of the 5-step desk whole-line run and of a
    3-step Robin run at phi = 0.5: every transfer solve beyond NATIVE_MAX."""
    out = []
    for kwargs in ({"steps": 5}, {"steps": 3, "domain": "robin", "phi": 0.5}):
        ledger = construct.build(1, 1.5, 1.0, **kwargs)
        pot = construct.step_potential(ledger.entries, ledger.domain, ledger.phi)
        out.append((pot, [specfun.upper_sqrt(e.lambda_n) for e in ledger.entries]))
    return out


def reference_transfer(potential, k):
    """The transfer recursion in 100-digit mpmath arithmetic, kappa on the
    upper sheet at k itself."""
    with mpmath.workdps(100):
        k = mpmath.mpc(k)
        if potential.boundary == "whole":
            f, fp = mpmath.mpc(1), -1j * k
        else:
            f = mpmath.mpc(math.cos(potential.phi))
            fp = mpmath.mpc(-math.sin(potential.phi))
        for length, value in eigensolve._intervals(potential):
            kappa = mpmath.sqrt(k * k - mpmath.mpc(value))
            if kappa.imag < 0 or (kappa.imag == 0 and kappa.real < 0):
                kappa = -kappa
            e2 = mpmath.exp(2j * kappa * mpmath.mpf(length))
            m11, m12 = (1 + e2) / 2, (e2 - 1) / (2j * kappa)
            m21 = (1j * kappa / 2) * (e2 - 1)
            f, fp = m11 * f + m12 * fp, m21 * f + m11 * fp
        return f - fp / (1j * k)


def mp_lane_eval(potential, k):
    """The extended lane's recursion at k with the solver's own refs and
    bits: (F as an exact mpc, |F| as the solver rounds it, bits)."""
    bits = specfun.solve_bits(eigensolve._phase_scale(potential, k))
    assert bits is not None
    refs = [specfun._fixed_pair(specfun.upper_sqrt(k * k - v), bits)
            for _, v in eigensolve._intervals(potential)]
    (re, im, den), _ = eigensolve._transfer_fixed(potential, specfun._exact(k), refs, bits)
    with mpmath.workprec(max(re.bit_length(), im.bit_length(), 53)):
        value = mpmath.mpc(re, im) / den  # den = 2^bits: exact
    return value, specfun._abs_rounded(re, im, den), bits


class TestFixedTransfer:
    BITS = 200

    def fixed_sqrt(self, w):
        """_fixed_sqrt of the exact mpc w as an mpc, and mpmath.sqrt at 200 bits."""
        x, y, s = exact_mpc(w)
        re, im = eigensolve._fixed_sqrt(x, y, s, self.BITS)
        with mpmath.workprec(self.BITS):
            want = mpmath.sqrt(w)
        got = mpmath.mpc(mpmath.ldexp(re, -self.BITS), mpmath.ldexp(im, -self.BITS))
        return got, want

    @pytest.mark.parametrize("w", [(1.7, 0.3), (-1.7, 0.3), (-1.7, -0.3), (1.7, -0.3),
                                   (-2.0, 2.0 ** -100), (-2.0, -(2.0 ** -100)),
                                   (-4.0, 0.0), (0.0, -3.0), (0.0, 0.0),
                                   (3.0 * 2.0 ** 300, -5.0 * 2.0 ** 299),
                                   (-3.0 * 2.0 ** -300, 5.0 * 2.0 ** -301)])
    def test_fixed_sqrt_matches_mpmath(self, w):
        with mpmath.workprec(self.BITS):
            got, want = self.fixed_sqrt(mpmath.mpc(*w))
            # a few 2^-bits of the fixed point, or mpmath's own rounding
            assert abs(got - want) <= 2.0 ** (4 - self.BITS) * max(1.0, abs(want))
            assert got.real >= 0.0 and (got.imag >= 0.0) == (w[1] >= 0.0)

    def test_fixed_sqrt_takes_sides_of_the_cut(self):
        above, _ = self.fixed_sqrt(mpmath.mpc(-2.0, 2.0 ** -100))
        below, _ = self.fixed_sqrt(mpmath.mpc(-2.0, -(2.0 ** -100)))
        assert above.imag > 1.4 and below.imag < -1.4

    def test_reference_on_other_sheet_flips_kappa(self):
        pot = StepPotential1D((0.0, 1e5), (0.5,))
        k = specfun._exact(complex(1.0, 1e-9))
        upper = specfun.upper_sqrt(complex(1.0, 1e-9) ** 2 - 0.5)
        bits = self.BITS
        ref = (specfun._fixed(upper.real, bits), specfun._fixed(upper.imag, bits))
        _, (kappa,) = eigensolve._transfer_fixed(pot, k, [ref], bits)
        _, (flipped,) = eigensolve._transfer_fixed(pot, k, [(-ref[0], -ref[1])], bits)
        assert kappa[1] > 0 and flipped == (-kappa[0], -kappa[1])

    def test_matches_100_digit_recursion(self, desk_potentials):
        # the recursion runs on 2^-bits, bits = the phase's precision +
        # FIXED_GUARD, from |f| <= 1 through step matrices of entries near
        # one: a few 2^-bits per interval, and F exact on those ints, within
        # the precision's rounding of the bound.  F is small at these roots,
        # so a bound relative to |F| alone would leave the last digits
        # unchecked.  |F| is rounded once from the ints.
        for pot, seeds in desk_potentials:
            steps = len(eigensolve._intervals(pot))
            for k in seeds:
                got, residual, bits = mp_lane_eval(pot, k)
                want = reference_transfer(pot, k)
                with mpmath.workdps(100):
                    tol = (steps * mpmath.ldexp(1, 8 - bits)
                           + abs(want) * mpmath.ldexp(1, specfun.FIXED_GUARD - bits))
                    assert abs(got - want) <= tol
                assert residual == float(abs(want))

    def test_zero_kappa_and_zero_k_divide_by_zero(self):
        pot = StepPotential1D((0.0, 1.0), (4.0,))
        with pytest.raises(ZeroDivisionError):  # kappa^2 = k^2 - 4 = 0
            eigensolve._transfer_fixed(pot, specfun._exact(2 + 0j), [(1, 0)], self.BITS)
        with pytest.raises(ZeroDivisionError):  # F divides by k
            eigensolve._transfer_fixed(pot, specfun._exact(0j), [(0, 1)], self.BITS)

    def test_growth_beyond_double_range_overflows(self):
        # a reference on the growing sheet: e^{2 i kappa L} leaves the
        # double range, as cmath.exp would in the native lane
        pot = StepPotential1D((0.0, 1e6), (1.0,))
        with pytest.raises(OverflowError):
            eigensolve._transfer_fixed(pot, specfun._exact(1j), [(0, -1)], self.BITS)

    def test_solves_build_no_mpmath_functions(self, desk_potentials, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath function in the transfer recursion")
        for name in ("sqrt", "exp", "cos_sin", "expj", "mpc", "mpf", "workdps", "workprec"):
            monkeypatch.setattr(mpmath, name, refuse)
        pot, seeds = desk_potentials[0]
        k, _ = eigensolve._transfer_newton(pot, seeds[-1] * (1.0 + 1e-9))
        assert isinstance(k, eigensolve.OffsetK)

    def test_lane_label_follows_phase(self, desk_potentials, moderate_bump):
        # bench/run.py labels transfer_newton.{native,mp} by k's type: a
        # complex, or beyond NATIVE_MAX the exact (seed, offset) pair, which
        # is not one
        pot, seeds = desk_potentials[0]
        for k_seed in seeds:
            k, residual = eigensolve._transfer_newton(pot, k_seed)
            assert type(k) is eigensolve.OffsetK and not isinstance(k, complex)
            assert k.seed == k_seed and residual <= 1e-10
        k, _ = eigensolve._transfer_newton(single_bump_potential(moderate_bump),
                                           moderate_bump.k)
        assert type(k) is complex


@pytest.fixture
def eigs_calls(monkeypatch):
    """Count the ARPACK calls made while the test runs."""
    calls = []
    real = scipy.sparse.linalg.eigs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counting)
    return calls


class TestGridOracle:
    def test_zero_potential_empty(self, eigs_calls):
        # no eigenvalue dominates the box modes of the cut continuum, so
        # inverse iteration does not settle and ARPACK decides
        pot = StepPotential1D((-1.0, 1.0), (0.0,), boundary="whole")
        out = grid_oracle_1d(pot, complex(1.0, -0.4), 0.15)
        assert out == []
        assert eigs_calls

    def test_matches_transfer_within_estimate(self, moderate_bump):
        pot = single_bump_potential(moderate_bump, 4.0)
        ref = transfer_eigen_1d(pot, moderate_bump.k)
        found = grid_oracle_1d(pot, ref.mu, 0.02)
        assert len(found) == 1
        assert abs(found[0].mu - ref.mu) <= 1e-8 + found[0].residual

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi / 2.0],
                             ids=["neumann", "robin", "dirichlet"])
    def test_robin_case_matches_transfer(self, moderate_bump, phi):
        # close enough to the wall that it moves mu by more than the grid's
        # error estimate, so a wrong ghost row cannot pass
        t = 3.0 * moderate_bump.a
        pot = single_bump_potential(moderate_bump, t, "robin", phi)
        ref = transfer_eigen_1d(pot, moderate_bump.k)
        whole = transfer_eigen_1d(single_bump_potential(moderate_bump, t),
                                  moderate_bump.k)
        found = grid_oracle_1d(pot, ref.mu, 0.02)
        assert found and abs(found[0].mu - ref.mu) <= 1e-8 + found[0].residual
        assert abs(ref.mu - whole.mu) > found[0].residual

    @pytest.mark.parametrize("phi", [None, 0.0, 1.0])
    def test_nearest_matches_dense_eig(self, phi):
        left, right, value = 2.0, 5.0, complex(0.8, -0.3)
        x_lo, x_hi, n, target = -3.0, 10.0, 400, complex(1.0, -0.2)
        if phi is None:
            pot = StepPotential1D((left, right), (value,))
        else:
            x_lo = 0.0
            pot = StepPotential1D((left, right), (value,), boundary="robin", phi=phi)
        eigs = scipy.linalg.eigvals(
            dense_fd_matrix(left, right, value, x_lo, x_hi, n, phi))
        want = eigs[np.argmin(np.abs(eigs - target))]
        got = _fd_nearest(pot, x_lo, x_hi, n, target)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("phi", [None, 0.0, 1.0])
    def test_isolated_eigenvalue_skips_arpack(self, phi, eigs_calls):
        # a deep step holds an eigenvalue near -2.43 - 0.95i; from a target
        # 1.4e-3 away, inverse iteration settles without ARPACK
        left, right, value = 2.0, 5.0, complex(-3.0, -1.0)
        x_lo, x_hi, n = -3.0, 10.0, 400
        if phi is None:
            pot = StepPotential1D((left, right), (value,))
        else:
            x_lo = 0.0
            pot = StepPotential1D((left, right), (value,), boundary="robin", phi=phi)
        eigs = scipy.linalg.eigvals(
            dense_fd_matrix(left, right, value, x_lo, x_hi, n, phi))
        want = eigs[np.argmin(np.abs(eigs - complex(-2.43, -0.95)))]
        got = _fd_nearest(pot, x_lo, x_hi, n, want + 1e-3 * (1 - 1j))
        assert got == pytest.approx(want, rel=1e-10)
        assert not eigs_calls

    def test_box_eigenvalue_at_disk_edge(self, moderate_bump):
        # the second-nearest grid eigenvalue, a box mode of the cut
        # continuum, sits just outside this radius (0.20353); the oracle
        # must not fail on an eigenvalue nobody asked for
        pot = single_bump_potential(moderate_bump, 4.0)
        ref = transfer_eigen_1d(pot, moderate_bump.k)
        found = grid_oracle_1d(pot, ref.mu, 0.2034)
        assert len(found) == 1
        assert abs(found[0].mu - ref.mu) <= 1e-8 + found[0].residual

    def test_requires_lower_half_target(self, moderate_bump):
        pot = single_bump_potential(moderate_bump)
        with pytest.raises(InvalidArgumentError):
            grid_oracle_1d(pot, complex(1.0, 0.2), 0.1)

    def test_unresolvable_radius_raises(self, moderate_bump):
        pot = single_bump_potential(moderate_bump, 4.0)
        with pytest.raises(GridResolutionError):
            grid_oracle_1d(pot, moderate_bump.mu, 1e-9)

    def test_domain_cap_raises(self):
        params = bumpmod.design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1)
        pot = single_bump_potential(params, 0.0)
        with pytest.raises(GridResolutionError):
            grid_oracle_1d(pot, params.mu, 0.001)

    def test_cap_counts_fine_grid_points(self, moderate_bump, monkeypatch):
        # the fine grid of n intervals' layout has 2n + 1 points: a cap of
        # 2n is one short, a cap of 2n + 1 is enough
        pot = single_bump_potential(moderate_bump, 4.0)
        _, _, n = grid_layout(pot, moderate_bump.mu)
        monkeypatch.setattr(eigensolve, "GRID_POINT_CAP", 2 * n + 1)
        assert grid_layout(pot, moderate_bump.mu)[2] == n
        monkeypatch.setattr(eigensolve, "GRID_POINT_CAP", 2 * n)
        with pytest.raises(GridResolutionError, match="need %d points" % (2 * n + 1)):
            grid_layout(pot, moderate_bump.mu)


def dense_fd_matrix(left, right, value, x_lo, x_hi, n, phi=None):
    """FD matrix of one step potential, built independently of eigensolve:
    Dirichlet cuts, and for a Robin phi != pi/2 a ghost node at x = 0."""
    h = (x_hi - x_lo) / (n + 1)
    ghost = phi is not None and phi != math.pi / 2.0
    xs = x_lo + h * np.arange(0 if ghost else 1, n + 1)
    overlap = np.clip(np.minimum(xs + h / 2.0, right)
                      - np.maximum(xs - h / 2.0, left), 0.0, None)
    off = np.full(len(xs) - 1, 1.0 / h ** 2)
    mat = (np.diag(2.0 / h ** 2 + value * overlap / h)
           - np.diag(off, 1) - np.diag(off, -1)).astype(complex)
    if ghost:
        mat[0, 0] -= 2.0 * math.tan(phi) / h
        mat[0, 1] = -2.0 / h ** 2
    return mat


# the whole-line domain [-3, 10] centres the step [2, 5], so H is
# mirror-symmetric; at 2+0.1i an even start vector misses the smallest
# singular vector, which is odd.  The first shift keeps its bare ids.
SIGMA_CASES = [pytest.param(phi, z, id=str(phi) if z == complex(1.0, -0.2)
                            else "%s-z=%s" % (phi, z))
               for z in (complex(1.0, -0.2), complex(2.0, 0.1))
               for phi in (None, 0.0, 1.0)]


class TestGridSigmaMin:
    @pytest.mark.parametrize("phi,z", SIGMA_CASES)
    def test_matches_dense_svd(self, phi, z):
        left, right, value = 2.0, 5.0, complex(0.8, -0.3)
        x_hi, n = 10.0, 400
        if phi is None:
            x_lo = -3.0
            pot = StepPotential1D((left, right), (value,))
        else:
            x_lo = 0.0
            pot = StepPotential1D((left, right), (value,), boundary="robin", phi=phi)
        mat = dense_fd_matrix(left, right, value, x_lo, x_hi, n, phi)
        shifted = mat - z * np.eye(len(mat))
        want = scipy.linalg.svdvals(shifted).min()
        got, vec = grid_sigma_min(pot, z, x_lo, x_hi, n)
        assert got == pytest.approx(want, rel=1e-10)
        # the returned vector is the smallest right singular vector
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(shifted @ vec) == pytest.approx(want, rel=1e-6)

    def test_even_start_still_finds_odd_vector(self):
        # the mirror-symmetric case: an exactly even start, iterated
        # without the ramp term, stalls at the even sigma 0.378 against
        # the true (odd) 0.368
        z, x_lo, x_hi, n = complex(2.0, 0.1), -3.0, 10.0, 400
        value = complex(0.8, -0.3)
        pot = StepPotential1D((2.0, 5.0), (value,))
        mat = dense_fd_matrix(2.0, 5.0, value, x_lo, x_hi, n)
        want = scipy.linalg.svdvals(mat - z * np.eye(n)).min()
        got, _ = grid_sigma_min(pot, z, x_lo, x_hi, n, start=np.ones(n))
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("phi,z", SIGMA_CASES)
    def test_restarted_basis_matches_dense_svd(self, phi, z, monkeypatch,
                                               zgttrs_calls):
        # a two-vector basis fills after two steps and restarts; every case
        # needs more than one such cycle (two solves a step)
        monkeypatch.setattr(eigensolve, "SIGMA_BASIS", 2)
        self.test_matches_dense_svd(phi, z)
        assert len(zgttrs_calls) > 4

    def test_restarted_basis_finds_odd_vector(self, monkeypatch, zgttrs_calls):
        monkeypatch.setattr(eigensolve, "SIGMA_BASIS", 2)
        self.test_even_start_still_finds_odd_vector()
        assert len(zgttrs_calls) > 4

    def test_iteration_cap_raises(self, monkeypatch):
        # one application of B cannot meet the Ritz-residual stop from a
        # cold start
        pot, x_lo, x_hi = sweep_potential(None)
        monkeypatch.setattr(eigensolve, "SIGMA_ITER_CAP", 1)
        with pytest.raises(NoConvergenceError, match="after 1 steps"):
            grid_sigma_min(pot, complex(1.0, -0.2), x_lo, x_hi, 400)

    @pytest.mark.parametrize("phi", [None, 0.0])
    def test_coarse_start_matches_dense_svd(self, phi):
        # a start on the nested coarse grid, prolonged to the fine one
        z, x_hi, n_c = complex(1.0, -0.2), 10.0, 200
        x_lo = -3.0 if phi is None else 0.0
        value = complex(0.8, -0.3)
        kind = {} if phi is None else {"boundary": "robin", "phi": phi}
        pot = StepPotential1D((2.0, 5.0), (value,), **kind)
        _, coarse = grid_sigma_min(pot, z, x_lo, x_hi, n_c)
        mat = dense_fd_matrix(2.0, 5.0, value, x_lo, x_hi, 2 * n_c + 1, phi)
        want = scipy.linalg.svdvals(mat - z * np.eye(len(mat))).min()
        got, vec = grid_sigma_min(pot, z, x_lo, x_hi, 2 * n_c + 1, start=coarse)
        assert len(vec) == len(mat)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("phi", [None, 0.0])
    def test_prolongation_exact_on_piecewise_linear(self, phi):
        # coarse nodes are every other fine node and the Dirichlet cuts
        # count as zeros, so a vector that is linear between coarse nodes
        # and vanishes at the cuts is reproduced exactly: a tent peaked at
        # a coarse node on the plain layout, a line falling to the right
        # cut on the ghost layout (whose node at x_lo is a real node)
        x_lo, x_hi, n_c = 0.0, 12.0, 5
        kind = {} if phi is None else {"boundary": "robin", "phi": phi}
        pot = StepPotential1D((2.0, 5.0), (0.5,), **kind)
        first = 1 if phi is None else 0

        def nodes(n):
            h = (x_hi - x_lo) / (n + 1)
            return x_lo + h * np.arange(first, n + 1)

        def shape(x):
            if phi is None:
                return np.minimum(x - x_lo, x_hi - x)
            return x_hi - x

        fine = _fd_grid_vector(pot, 2 * n_c + 1, shape(nodes(n_c)))
        assert len(fine) == 2 * n_c + 1 + (1 - first)
        np.testing.assert_allclose(fine, shape(nodes(2 * n_c + 1)),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n,length", [(9, 8), (9, 5), (9, 3), (10, 4)])
    def test_wrong_start_length_raises(self, n, length):
        # a 9-interval grid takes 9 nodes or its coarse grid's 4; an even
        # n has no nested coarse grid
        pot = StepPotential1D((2.0, 5.0), (0.5,))
        with pytest.raises(InvalidArgumentError):
            grid_sigma_min(pot, complex(1.0, -0.2), 0.0, 12.0, n,
                           start=np.ones(length))

    def test_zero_start_raises(self):
        pot = StepPotential1D((2.0, 5.0), (0.5,))
        with pytest.raises(InvalidArgumentError):
            grid_sigma_min(pot, complex(1.0, -0.2), 0.0, 12.0, 9,
                           start=np.zeros(9))

    def test_singular_shift_raises(self):
        # h = 1 and a zero potential: H - 2 = tridiag(-1, 0, -1) on three
        # nodes is exactly singular
        pot = StepPotential1D((0.5, 1.0), (0.0,))
        with pytest.raises(SingularShiftError):
            grid_sigma_min(pot, 2.0, 0.0, 4.0, 3)


def allocating_sigma_min(pot, z, x_lo, x_hi, n, start=None):
    """Reference: power iteration on (A^H A)^-1, A = H - z, with the start
    and the factorisation of grid_sigma_min, allocating every step's solves
    and its normalised vector, and stopping once the growth changes by at
    most SIGMA_TOL relative."""
    lower, main, upper, _ = _fd_operator(pot, x_lo, x_hi, n)
    *factors, info = scipy.linalg.lapack.zgttrf(lower, main - complex(z), upper)
    assert info == 0
    v = np.linspace(1.0, 2.0, len(factors[1])).astype(complex)
    v /= np.linalg.norm(v)
    if start is not None:
        start = _fd_grid_vector(pot, n, start)
        v = start / float(np.linalg.norm(start)) + 1e-2 * v
        v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(eigensolve.SIGMA_ITER_CAP):
        w, _ = scipy.linalg.lapack.zgttrs(*factors, v, trans="C")
        u, _ = scipy.linalg.lapack.zgttrs(*factors, w)
        prev, growth = growth, float(np.linalg.norm(u))
        v = u / growth
        if growth - prev <= eigensolve.SIGMA_TOL * growth:
            return 1.0 / math.sqrt(growth), v
    raise AssertionError("reference loop did not settle")


def sweep_potential(phi):
    """The step 0.8-0.3i on [2, 5]: whole line on [-3, 10] for phi None,
    else Robin on [0, 10]; returns (potential, x_lo, x_hi)."""
    if phi is None:
        return StepPotential1D((2.0, 5.0), (complex(0.8, -0.3),)), -3.0, 10.0
    return (StepPotential1D((2.0, 5.0), (complex(0.8, -0.3),),
                            boundary="robin", phi=phi), 0.0, 10.0)


def operator_matrix(pot, x_lo, x_hi, n):
    lower, main, upper, _ = _fd_operator(pot, x_lo, x_hi, n)
    return np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)


class TestInPlaceSweep:
    @pytest.mark.parametrize("start", ["cold", "same-grid", "coarse-grid"])
    @pytest.mark.parametrize("phi", [None, 0.0, 1.0])
    def test_bitwise_equal_to_allocating_loop(self, phi, start):
        # Lanczos and the reference power loop reach the same singular pair
        # by different arithmetic: sigma agrees to 1e-11 relative and the
        # vector up to phase to 1e-10 (both measured below 1e-12), tighter
        # than the dense-SVD checks.  Bitwise, a repeat call returns the
        # same sigma and vector, and the warm start is never written
        pot, x_lo, x_hi = sweep_potential(phi)
        z, n = complex(1.0, -0.2), 400
        warm = None
        if start == "same-grid":
            _, warm = allocating_sigma_min(pot, complex(1.05, -0.2), x_lo, x_hi, n)
        elif start == "coarse-grid":
            _, warm = allocating_sigma_min(pot, z, x_lo, x_hi, n // 2)
            n = n + 1
        kept = None if warm is None else warm.copy()
        want_sigma, want_vec = allocating_sigma_min(pot, z, x_lo, x_hi, n, warm)
        got_sigma, got_vec = grid_sigma_min(pot, z, x_lo, x_hi, n, start=warm)
        assert got_sigma == pytest.approx(want_sigma, rel=1e-11)
        assert 1.0 - abs(np.vdot(got_vec, want_vec)) <= 1e-10
        again_sigma, again_vec = grid_sigma_min(pot, z, x_lo, x_hi, n, start=warm)
        assert again_sigma == got_sigma
        assert np.array_equal(again_vec, got_vec)
        if warm is not None:
            assert np.array_equal(warm, kept)

    @pytest.mark.parametrize("n_next", [200, 401])
    def test_start_is_left_alone(self, n_next):
        # a returned vector fed back as the next start, on its own grid or
        # prolonged to the fine one, is read and never written
        pot, x_lo, x_hi = sweep_potential(None)
        _, first = grid_sigma_min(pot, complex(1.0, -0.2), x_lo, x_hi, 200)
        kept = first.copy()
        _, second = grid_sigma_min(pot, complex(1.05, -0.2), x_lo, x_hi,
                                   n_next, start=first)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)


class TestOperatorCache:
    def test_cached_diagonals_read_only(self):
        pot, x_lo, x_hi = sweep_potential(0.0)
        for diagonal in _fd_operator(pot, x_lo, x_hi, 50)[:3]:
            with pytest.raises(ValueError):
                diagonal[0] = 0.0

    def test_cached_ramp_read_only_and_left_alone(self):
        # a cold start copies the shared unit ramp before stepping in place
        pot, x_lo, x_hi = sweep_potential(None)
        ramp = eigensolve._unit_ramp(200)
        kept = ramp.copy()
        with pytest.raises(ValueError):
            ramp[0] = 0.0
        grid_sigma_min(pot, complex(1.0, -0.2), x_lo, x_hi, 200)
        assert eigensolve._unit_ramp(200) is ramp
        assert np.array_equal(ramp, kept)

    @pytest.mark.parametrize("pair", ["robin-phi", "robin-whole", "perturbation"])
    def test_distinct_potentials_distinct_operators(self, pair):
        # on one grid, each potential of the pair gets its own operator,
        # whichever of them the cache saw first
        x_lo, x_hi, n = 0.0, 10.0, 60
        value = complex(0.8, -0.3)
        if pair == "robin-phi":
            first, _, _ = sweep_potential(0.0)
            second, _, _ = sweep_potential(1.0)
            wants = [dense_fd_matrix(2.0, 5.0, value, x_lo, x_hi, n, phi)
                     for phi in (0.0, 1.0)]
        elif pair == "robin-whole":
            first, _, _ = sweep_potential(0.0)
            second = StepPotential1D((2.0, 5.0), (value,))
            wants = [dense_fd_matrix(2.0, 5.0, value, x_lo, x_hi, n, phi)
                     for phi in (0.0, None)]
        else:
            entry = SimpleNamespace(t=3.5, bump=SimpleNamespace(a=1.5, c=value))
            first = construct.step_potential([entry])
            second = construct.step_potential([entry], support_perturbation=0.05)
            wants = [dense_fd_matrix(2.0, 5.0, v, x_lo, x_hi, n)
                     for v in (value, value + 0.05)]
        _fd_operator.cache_clear()
        gots = [operator_matrix(pot, x_lo, x_hi, n) for pot in (first, second)]
        assert not np.array_equal(gots[0], gots[1])
        for got, want in zip(gots, wants):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


class TestMultiBumpGrid:
    def test_two_bump_potential_both_roots_recovered(self, moderate_bumps):
        # the multi-bump grid cross-check at a scale a grid can afford
        first, second = moderate_bumps[0], moderate_bumps[2]
        t1 = 2.0 * first.a
        t2 = t1 + first.a + 3.0 * second.a
        pot = StepPotential1D(
            (t1 - first.a, t1 + first.a, t2 - second.a, t2 + second.a),
            (first.c, 0.0, second.c))
        for params in (first, second):
            ref = transfer_eigen_1d(pot, params.k)
            found = grid_oracle_1d(pot, ref.mu, 0.02)
            assert found
            assert abs(found[0].mu - ref.mu) <= 1e-8 + found[0].residual


class TestOracleTriangle:
    def test_three_methods_agree(self, moderate_bump):
        sec = refine_eigen(problem_for(moderate_bump), moderate_bump.k)
        pot = single_bump_potential(moderate_bump, 6.0)
        tra = transfer_eigen_1d(pot, moderate_bump.k)
        gri = grid_oracle_1d(pot, sec.mu, 0.02)[0]
        assert abs(sec.mu - tra.mu) <= 1e-8
        assert abs(sec.mu - gri.mu) <= 1e-8 + gri.residual
        assert abs(tra.mu - gri.mu) <= 1e-8 + gri.residual
