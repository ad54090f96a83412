"""Bump designer: closed forms, budget search, norms against quadrature."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from eigenbump import bump as bumpmod
from eigenbump import construct, eigensolve, specfun
from eigenbump.bump import (BumpParams, PlacedBump, boundary_wavenumber,
                            design_bump, eigenfunction_eval, norm_inf, norm_p,
                            potential_eval, radius_for_index, solve_eta)
from eigenbump.errors import BudgetInfeasibleError, InvalidArgumentError, PoleError


class TestRadius:
    @pytest.mark.parametrize("d,nu,m,want", [
        (1, 1.0, 0, math.pi / 4.0),
        (3, 1.0, 0, 3.0 * math.pi / 4.0),
        (2, 2.0, 1, 3.0 * math.pi / 4.0),
    ])
    def test_examples(self, d, nu, m, want):
        assert radius_for_index(d, nu, m) == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            radius_for_index(0, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            radius_for_index(1, -1.0, 0)
        with pytest.raises(InvalidArgumentError):
            radius_for_index(1, 1.0, -1)


class TestEta:
    def test_oracle_values(self):
        # frozen from an independent 40-digit root find
        assert solve_eta(1.0, math.pi / 4.0) == pytest.approx(
            0.474540999512651, rel=1e-12)
        assert solve_eta(1.0, 3.0 * math.pi / 4.0) == pytest.approx(
            0.274410631902848, rel=1e-12)

    def test_residual_contract(self, rng):
        for _ in range(60):
            nu = float(rng.uniform(0.05, 4.0))
            a = float(math.exp(rng.uniform(math.log(0.2), math.log(1e17))))
            eta = solve_eta(nu, a)
            assert 0.0 < eta <= nu
            assert abs(eta * math.exp(2.0 * eta * a) - nu) <= 1e-13 * nu

    def test_small_nu_linearisation(self):
        ratios = [solve_eta(nu, 1.0) / nu for nu in (1e-3, 1e-5, 1e-7)]
        assert abs(ratios[-1] - 1.0) < 1e-5
        assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)

    def test_monotone_in_a(self):
        etas = [solve_eta(1.0, a) for a in (0.5, 1.0, 5.0, 50.0)]
        assert all(e2 < e1 for e1, e2 in zip(etas, etas[1:]))


class TestBoundaryWavenumber:
    def test_d3_cotangent_form(self):
        tau = complex(1.0, 0.1)
        a = 3.0 * math.pi / 4.0
        want = -1j * tau * cmath.cos(tau * a) / cmath.sin(tau * a)
        got = boundary_wavenumber(3, tau, a)
        assert got == pytest.approx(want, rel=1e-12)

    def test_d1_elementary_form(self):
        # tau real with tau*a = pi/4: the ratio collapses to -(1/z + tan z)
        tau = complex(1.0, 0.0)
        a = math.pi / 4.0
        z = math.pi / 4.0
        ratio = (-math.cos(z) / z - math.sin(z)) / math.cos(z)
        want = -1j * ratio * tau - 1j / a
        got = boundary_wavenumber(1, tau, a)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(1j, abs=1e-12)  # collapses to exactly i

    def test_asymptotic_drift_d3_exact(self):
        # k_m -> -nu + i eta_m; for d=3 the half-integer ratio is elementary
        # and eta e^{2 eta a} = nu collapses the correction to exactly zero,
        # so the drift is rounding noise at every index
        nu = 1.0
        for m in (5, 10, 20, 40):
            a = radius_for_index(3, nu, m)
            eta = solve_eta(nu, a)
            k = boundary_wavenumber(3, complex(nu, eta), a)
            assert abs(k.real + nu) / eta < 1e-10
            assert abs(k.imag / eta - 1.0) < 1e-10

    def test_asymptotic_drift_d2_monotone(self):
        # non-elementary orders keep the genuine O(1/log) correction, which
        # must shrink monotonically along the index sequence
        nu = 1.0
        rel_re, rel_im = [], []
        for m in (5, 10, 20, 40, 80):
            a = radius_for_index(2, nu, m)
            eta = solve_eta(nu, a)
            k = boundary_wavenumber(2, complex(nu, eta), a)
            rel_re.append(abs(k.real + nu) / eta)
            rel_im.append(abs(k.imag / eta - 1.0))
        assert all(b < a for a, b in zip(rel_re, rel_re[1:]))
        assert all(b < a for a, b in zip(rel_im, rel_im[1:]))
        assert rel_re[-1] < 0.1 and rel_im[-1] < 0.1

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [0.5, 1.0, math.sqrt(257.0 / 512.0)])
    def test_exact_product_matches_mpmath_lane(self, d, nu):
        # beyond NATIVE_MAX the exact-product path returns the mpmath
        # lane's double, bit for bit, at desk radii up to m = 1e18
        checked = 0
        for m in [mant * 10 ** e for e in range(4, 19) for mant in (1, 3)]:
            if m > 10 ** 18:
                continue
            a = radius_for_index(d, nu, m)
            tau = complex(nu, solve_eta(nu, a))
            if abs(tau * a) <= specfun.NATIVE_MAX:
                continue
            assert boundary_wavenumber(d, tau, a) == lane_boundary_wavenumber(d, tau, a)
            checked += 1
        assert checked >= 28

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("lo,hi,kind", [(0.0, 2e-13, "pole"), (4e-13, 8e-13, "pole"),
                                            (1.5e-12, 3e-12, "value")])
    def test_exact_product_pole_rule_matches_mpmath_lane(self, d, lo, hi, kind):
        # tau a at a distance in [lo, hi) from a zero of J_{d/2-1}, |tau a|
        # ~ 1e6 and Im tau a ~ 1e-24, against the threshold |J| ~ 1e-12:
        # decided on the ints' logarithm below 2e-13, at the working
        # precision within a factor 4 of it; the same PoleError distance or
        # double as the mpmath lane
        nu, a = product_at_zero(d / 2.0 - 1.0, 1e6, lo, hi)
        tau = complex(nu, 1e-30)
        got = wavenumber_outcome(boundary_wavenumber, d, tau, a)
        assert got[0] == kind
        assert got == wavenumber_outcome(lane_boundary_wavenumber, d, tau, a)


def lane_boundary_wavenumber(d, tau, a):
    """boundary_wavenumber as the mpmath lane computed it beyond
    NATIVE_MAX: tau a rounded at the lane's precision, ``bessel_ratio_mp``,
    and k in mpc arithmetic with the double (d - 3)/(2a)."""
    with specfun.lane(abs(tau * a)) as ops:
        assert ops.mp
        tau_l = mpmath.mpc(tau)
        ratio = specfun.bessel_ratio_mp(d / 2.0 - 1.0, tau_l * a)
        return complex(-1j * tau_l * ratio + 1j * (d - 3.0) / (2.0 * a))


def product_at_zero(order, near, lo, hi):
    """Doubles (nu, a), a ~ near, whose exact product lies at a distance in
    [lo, hi) from a zero of J_order: Newton from McMahon's estimate at 50
    digits, then a walk over the doubles a for nu a in that window."""
    with mpmath.workdps(50):
        zero = (round(near / math.pi) + order / 2.0 - 0.25) * mpmath.pi
        for _ in range(6):
            # J_order / J_order' from R = J_order / J_order+1, finite here
            ratio = specfun.bessel_ratio_mp(order + 1.0, mpmath.mpc(zero))
            zero -= (ratio / (order / zero * ratio - 1.0)).real
        a = float(zero)
        for _ in range(100000):
            nu = float(zero / a)
            if lo <= abs(mpmath.mpf(nu) * a - zero) < hi:
                return nu, a
            a = math.nextafter(a, math.inf)
    raise AssertionError("no product of doubles in the window")


def wavenumber_outcome(wavenumber, d, tau, a):
    """("value", k) or ("pole", the PoleError distance)."""
    try:
        return "value", wavenumber(d, tau, a)
    except PoleError as err:
        return "pole", err.distance


def _step1_args(p, budget):
    """design_bump arguments of step 1 (target 1 within 1/4) of a d = 1 build."""
    eps, delta = construct.budgets(1, budget, math.inf)
    return (1, p, 1.0, eps, delta, 0.25)


FRONTIER_CASES = {
    "grid-certify": _step1_args(3.0, 8.0),       # m = 3
    "moderate": (1, 2.0, 1.0, 2.0, 2.0, 0.25),   # conftest moderate_bump, m = 3
    "desk-whole": _step1_args(1.5, 1.0),         # m = 49,832
}


@pytest.fixture
def probed(monkeypatch):
    """Indices passed to bump._candidate while the test runs."""
    seen = []
    real = bumpmod._candidate

    def counting(d, nu, lam, m):
        seen.append(m)
        return real(d, nu, lam, m)
    monkeypatch.setattr(bumpmod, "_candidate", counting)
    return seen


class TestDesign:
    def test_d1_example_and_order_estimates(self):
        params = design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1)
        assert abs(params.mu - 1.0) < 0.1
        assert params.mu.imag < 0.0
        assert norm_p(params, 2.0) < 0.5
        assert norm_inf(params) < 0.5
        assert params.residual <= 1e-10
        # |mu - lam| and |c| stay O(eta) along the index sequence
        for m in (params.m, 2 * params.m, 4 * params.m):
            cand = bumpmod._candidate(1, 1.0, 1.0, m)
            assert abs(cand.mu - 1.0) / cand.eta < 10.0
            assert abs(cand.c) / cand.eta < 10.0

    def test_tightening_r_never_decreases_m(self):
        loose = design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1)
        tight = design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.01)
        assert tight.m >= loose.m

    def test_d3_generous_budgets(self):
        params = design_bump(3, 4.0, 2.0, 4.0, 4.0, 0.5)
        assert params.k.imag > 0.0
        assert params.mu.imag < 0.0
        prob = eigensolve.SecularProblem(d=3, c=params.c, a=params.a,
                                         branch_ref=params.tau)
        refined = eigensolve.refine_eigen(prob, complex(-params.nu, params.eta))
        assert abs(refined.mu - params.mu) < 1e-8

    def test_infeasible_budget_reports_constraint(self):
        with pytest.raises(BudgetInfeasibleError) as err:
            design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1, m_cap=3)
        assert err.value.failed_constraint is not None

    @pytest.mark.parametrize("case", sorted(FRONTIER_CASES))
    def test_index_sits_on_frontier(self, case):
        d, p, lam, eps, delta, r = FRONTIER_CASES[case]
        params = design_bump(d, p, lam, eps, delta, r)
        assert params.m >= 1
        below = bumpmod._candidate(d, params.nu, lam, params.m - 1)
        assert bumpmod._first_failure(below, p, eps, delta, r) is not None

    def test_probe_count_logarithmic(self, probed):
        params = design_bump(*FRONTIER_CASES["desk-whole"])
        assert len(probed) <= 2 * params.m.bit_length() + 2

    def test_zero_cap_probes_only_index_zero(self, probed):
        with pytest.raises(BudgetInfeasibleError):
            design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1, m_cap=0)
        assert probed == [0]

    def test_negative_cap_rejected(self, probed):
        with pytest.raises(InvalidArgumentError):
            design_bump(1, 2.0, 1.0, 0.5, 0.5, 0.1, m_cap=-1)
        assert probed == []

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            design_bump(3, 2.0, 1.0, 0.5, 0.5, 0.1)  # p <= d
        with pytest.raises(InvalidArgumentError):
            design_bump(1, 2.0, 0.0, 0.5, 0.5, 0.1)  # lam outside (0, inf)
        with pytest.raises(InvalidArgumentError):
            design_bump(1, 2.0, 1.0, -0.5, 0.5, 0.1)

    def test_norm_budgets_hold_across_matrix(self, moderate_bumps):
        for params in moderate_bumps:
            assert norm_p(params, 2.0) < 2.0
            assert norm_inf(params) < 2.0
            assert params.residual <= 1e-10

    def test_normalized_lp_growth_bounded(self):
        # ||U||_p^p * eta^{-(p-d)} * ln(nu/eta)^{-d} stays bounded along m
        vals = []
        for m in (50, 200, 800, 3200):
            cand = bumpmod._candidate(1, 1.0, 1.0, m)
            np_p = norm_p(cand, 2.0) ** 2.0
            vals.append(np_p / (cand.eta * math.log(1.0 / cand.eta)))
        assert max(vals) < 40.0 and min(vals) > 0.1


class TestNorms:
    def test_d1_closed_form_is_plain_integral(self, moderate_bump):
        p = 2.0
        want_p = 2.0 * moderate_bump.a * abs(moderate_bump.c) ** p
        assert norm_p(moderate_bump, p) ** p == pytest.approx(want_p, rel=1e-12)

    def test_d3_against_quadrature(self):
        params = BumpParams(d=3, lam=1.0, nu=1.0, m=2, a=2.0, eta=0.3,
                            tau=complex(1.0, 0.3), k=complex(-1.0, 0.31))
        p = 4.0
        # |U|^p integrated radially: constant inside, zero tail for d=3
        integrand = lambda r: 4.0 * math.pi * r * r * abs(params.c) ** p
        want, _ = quad(integrand, 0.0, params.a, epsabs=1e-13, epsrel=1e-12)
        assert norm_p(params, p) ** p == pytest.approx(want, rel=1e-8)

    def test_d2_tail_against_quadrature(self):
        # c = 0 leaves the pure r^-2 tail
        tau = complex(1.0, 0.2)
        params = BumpParams(d=2, lam=1.0, nu=1.0, m=1, a=1.5, eta=0.2,
                            tau=tau, k=tau)  # k = tau makes c = 0
        assert params.c == 0.0
        p = 3.0
        integrand = lambda r: 2.0 * math.pi * r * (1.0 / (4.0 * r * r)) ** p
        want, _ = quad(integrand, params.a, np.inf, epsabs=1e-13, epsrel=1e-12)
        assert norm_p(params, p) ** p == pytest.approx(want, rel=1e-8)

    def test_d5_mixed_terms_against_quadrature(self):
        params = BumpParams(d=5, lam=1.0, nu=1.0, m=1, a=3.0, eta=0.2,
                            tau=complex(1.0, 0.2), k=complex(-1.0, 0.25))
        p = 6.0
        surf = 2.0 * math.pi ** 2.5 / math.gamma(2.5)
        inside = lambda r: surf * r ** 4 * abs(params.c) ** p
        outside = lambda r: surf * r ** 4 * (8.0 / (4.0 * r * r)) ** p
        want = quad(inside, 0.0, params.a, epsrel=1e-12)[0] \
            + quad(outside, params.a, np.inf, epsrel=1e-12)[0]
        assert norm_p(params, p) ** p == pytest.approx(want, rel=1e-8)

    def test_norm_p_requires_p_above_d(self, moderate_bump):
        with pytest.raises(InvalidArgumentError):
            norm_p(moderate_bump, 1.0)

    def test_norm_inf_examples(self, moderate_bump):
        assert norm_inf(moderate_bump) == abs(moderate_bump.c)
        flat = BumpParams(d=2, lam=1.0, nu=1.0, m=0, a=1.0, eta=0.1,
                          tau=complex(1.0, 0.1), k=complex(1.0, 0.1))
        assert flat.c == 0.0 and norm_inf(flat) == 0.25
        big = BumpParams(d=5, lam=1.0, nu=1.0, m=0, a=100.0, eta=0.1,
                         tau=complex(1.0, 0.1), k=complex(1.0, 0.1))
        assert norm_inf(big) == pytest.approx(2e-4, rel=1e-12)


class TestPotential:
    def test_piecewise_values(self, moderate_bump):
        placed = PlacedBump(moderate_bump, t=5.0)
        a = moderate_bump.a
        assert potential_eval(placed, [5.0]) == moderate_bump.c
        assert potential_eval(placed, [5.0 + a]) == moderate_bump.c  # closed ball
        assert potential_eval(placed, [5.0 + 2.0 * a]) == 0.0  # (d-3)(d-1) = 0

    def test_d3_outside_vanishes(self):
        params = BumpParams(d=3, lam=1.0, nu=1.0, m=0, a=1.0, eta=0.1,
                            tau=complex(1.0, 0.1), k=complex(-1.0, 0.12))
        assert potential_eval(PlacedBump(params, 0.0), [0.0, 0.0, 5.0]) == 0.0

    def test_d2_tail_value(self):
        params = BumpParams(d=2, lam=1.0, nu=1.0, m=0, a=1.25, eta=0.1,
                            tau=complex(1.0, 0.1), k=complex(-1.0, 0.12))
        r = 2.0 * params.a
        got = potential_eval(PlacedBump(params, 0.0), [0.0, r])
        assert got == pytest.approx(1.0 / (16.0 * params.a ** 2), rel=1e-12)

    def test_translation_invariance(self, moderate_bump, rng):
        for _ in range(20):
            t = float(rng.uniform(-30.0, 30.0))
            x = float(rng.uniform(-30.0, 30.0))
            shift = float(rng.uniform(-10.0, 10.0))
            base = potential_eval(PlacedBump(moderate_bump, t), [x])
            moved = potential_eval(PlacedBump(moderate_bump, t + shift), [x + shift])
            assert base == moved
            f_base = eigenfunction_eval(moderate_bump, t, [x])
            f_moved = eigenfunction_eval(moderate_bump, t + shift, [x + shift])
            assert f_base == pytest.approx(f_moved, rel=1e-12)


class TestEigenfunction:
    @pytest.mark.parametrize("d,p_exp", [(1, 2.0), (3, 4.0)])
    def test_continuity_at_radius(self, d, p_exp):
        params = design_bump(d, p_exp, 1.0, 4.0, 4.0, 0.4)
        a = params.a
        inner = eigenfunction_eval(params, 0.0, _point(d, a * (1.0 - 1e-9)))
        outer = eigenfunction_eval(params, 0.0, _point(d, a * (1.0 + 1e-9)))
        assert abs(inner - outer) <= 1e-7 * abs(outer)

    def test_derivative_continuity_at_radius(self, moderate_bump):
        # the defining property of the designed wavenumber
        a, h = moderate_bump.a, 1e-6
        def g(r):
            return eigenfunction_eval(moderate_bump, 0.0, [r])
        inner_slope = (g(a - h) - g(a - 3.0 * h)) / (2.0 * h)
        outer_slope = (g(a + 3.0 * h) - g(a + h)) / (2.0 * h)
        assert inner_slope == pytest.approx(outer_slope, rel=1e-4)

    def test_center_value_is_series_limit(self):
        params = design_bump(3, 4.0, 1.0, 4.0, 4.0, 0.4)
        center = eigenfunction_eval(params, 0.0, [0.0, 0.0, 0.0])
        near = eigenfunction_eval(params, 0.0, [0.0, 0.0, 1e-7])
        assert center == pytest.approx(near, rel=1e-8)

    def test_decay_outside(self, moderate_bump):
        a = moderate_bump.a
        g_a = eigenfunction_eval(moderate_bump, 0.0, [a])
        g_2a = eigenfunction_eval(moderate_bump, 0.0, [2.0 * a])
        assert abs(g_2a) < abs(g_a)


class TestAADBound:
    def test_designed_bumps_satisfy_l1_bound(self, moderate_bumps):
        for params in moderate_bumps:
            half_l1 = params.a * abs(params.c)
            assert abs(params.mu) ** 0.5 <= half_l1


class TestSelfConsistency:
    def test_stored_scalars(self, moderate_bump):
        b = moderate_bump
        assert b.nu ** 2 == pytest.approx(b.lam, rel=1e-14)
        assert b.a == (b.d * math.pi / 4.0 + math.pi * b.m) / b.nu
        assert b.tau == complex(b.nu, b.eta)
        assert b.c == b.k * b.k - b.tau * b.tau
        assert b.mu == b.k * b.k
        assert b.k.imag > 0.0 and b.mu.imag < 0.0


def _point(d, r):
    x = [0.0] * d
    x[-1] = r
    return x
