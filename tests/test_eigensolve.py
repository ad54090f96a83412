"""Oracle solvers: secular, transfer-matrix and grid, plus cross-checks."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from eigenbump import bump as bumpmod
from eigenbump.eigensolve import (SecularProblem, StepPotential1D, _fd_nearest,
                                  _fd_grid_vector, count_zeros, grid_oracle_1d, grid_sigma_min,
                                  refine_eigen, secular_residual, step_matrix,
                                  transfer_eigen_1d)
from eigenbump.errors import (ContourError, GridResolutionError,
                              InvalidArgumentError, NoConvergenceError,
                              WrongSheetError)


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
        prob = problem_for(params)
        for dk in (0.0, 0.01 + 0.003j, -0.02j):
            k = params.k + dk
            tau = cmath.sqrt(k * k - params.c)
            if abs(tau - params.tau) > abs(tau + params.tau):
                tau = -tau
            want = k + 1j * tau * (cmath.cos(tau * params.a)
                                   / cmath.sin(tau * params.a))
            assert secular_residual(prob, k) == pytest.approx(want, rel=1e-10)

    def test_free_problem_has_no_upper_roots(self):
        # c = 0: F(k) = 2k (d=3), no zeros off the origin
        prob = SecularProblem(d=3, c=0.0, a=2.0, branch_ref=complex(1.0, 0.5))
        assert count_zeros(prob, (0.3 + 0.1j, 2.5 + 2.0j)) == 0

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


class TestCountZeros:
    def test_one_root_around_designed(self, moderate_bump):
        k = moderate_bump.k
        prob = problem_for(moderate_bump)
        half = min(0.3 * k.imag, math.pi / (8.0 * moderate_bump.a))
        box = (k - half - 1j * half, k + half + 1j * half)
        assert count_zeros(prob, box) == 1

    def test_doubled_box_still_one(self, moderate_bump):
        k = moderate_bump.k
        prob = problem_for(moderate_bump)
        half = min(0.3 * k.imag, math.pi / (8.0 * moderate_bump.a))
        box = (k - 2 * half - 2j * half, k + 2 * half + 2j * half)
        assert count_zeros(prob, box) == 1

    def test_far_region_empty(self):
        prob = SecularProblem(d=1, c=complex(0.0, -1e-4), a=1.0,
                              branch_ref=complex(1.0, 0.5))
        assert count_zeros(prob, (2.0 + 1.0j, 3.0 + 2.0j)) == 0

    def test_one_root_in_extended_lane(self):
        # |tau| a ~ 4e5: the contour runs in the mp lane
        params = bumpmod.design_bump(1, 2.0, 1.0, 0.05, 0.05, 0.01)
        assert abs(params.tau) * params.a > 1e5
        k = params.k
        half = min(0.3 * k.imag, math.pi / (8.0 * params.a))
        box = (k - half - 1j * half, k + half + 1j * half)
        assert count_zeros(problem_for(params), box) == 1

    def test_contour_through_root_detected(self, moderate_bump):
        prob = problem_for(moderate_bump)
        k = moderate_bump.k
        # a corner sits (numerically) on the root
        with pytest.raises((ContourError, InvalidArgumentError)):
            count_zeros(prob, (k, k + 0.05 + 0.05j))


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
        # same physical problem, pushed into the mp lane by a distant shift
        native = transfer_eigen_1d(single_bump_potential(moderate_bump, 0.0),
                                   moderate_bump.k)
        far = transfer_eigen_1d(single_bump_potential(moderate_bump, 2.0e5),
                                moderate_bump.k)
        assert far.mu == pytest.approx(native.mu, abs=1e-10)


class TestStepMatrix:
    def test_determinant_one(self, rng):
        # cos^2 + sin^2 = 1 is conditioned like eps * e^{2 |Im kappa L|},
        # so the 1e-12 check is meaningful for |Im kappa L| up to ~4
        count = 0
        while count < 40:
            k = complex(rng.uniform(-2, 2), rng.uniform(0.05, 1.0))
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            length = float(rng.uniform(0.1, 8.0))
            kappa = cmath.sqrt(k * k - w)
            if abs((kappa * length).imag) > 4.0:
                continue
            count += 1
            det = np.linalg.det(step_matrix(k, w, length))
            assert det == pytest.approx(1.0, rel=1e-12)

    def test_composition_matches_single_step(self):
        k, w = complex(-1.0, 0.2), complex(0.1, -0.3)
        one = step_matrix(k, w, 2.0)
        two = step_matrix(k, w, 1.2) @ step_matrix(k, w, 0.8)
        assert np.allclose(one, two, rtol=1e-12)


class TestGridOracle:
    def test_zero_potential_empty(self):
        pot = StepPotential1D((-1.0, 1.0), (0.0,), boundary="whole")
        out = grid_oracle_1d(pot, complex(1.0, -0.4), 0.15)
        assert out == []

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
        with pytest.raises(np.linalg.LinAlgError):
            grid_sigma_min(pot, 2.0, 0.0, 4.0, 3)


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
