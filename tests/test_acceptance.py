"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines as
they happen; a failing criterion prints FAIL and the assertion detail.
"""

import cmath
import contextlib
import json
import math
import time

import mpmath
import numpy as np
import pytest

from eigenbump import bump as bumpmod
from eigenbump import cli, construct, eigensolve, ltreport
from eigenbump.bump import design_bump, norm_inf, norm_p
from eigenbump.construct import Target, build
from eigenbump.specfun import BesselQuery, bessel_j

from conftest import mpc_of


@contextlib.contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %2d FAIL: %s" % (number, description))
        raise
    elapsed = time.monotonic() - start
    print("criterion %2d PASS: %s  (%.1fs)" % (number, description, elapsed))


def half_integer_closed(order, z):
    root = cmath.sqrt(2.0 / (math.pi * z))
    if order == 0.5:
        return root * cmath.sin(z)
    if order == -0.5:
        return root * cmath.cos(z)
    if order == 1.5:
        return root * (cmath.sin(z) / z - cmath.cos(z))
    return root * (-cmath.cos(z) / z - cmath.sin(z))  # order -3/2


BUILD_SECONDS = {}


@pytest.fixture(scope="module")
def ledger_pair(tmp_path_factory):
    """Two independent runs of the desk-scale whole-line construction."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = [root / "run_a.json", root / "run_b.json"]
    start = time.monotonic()
    for path in paths:
        code = cli.main(["construct", "--dim", "1", "--p", "1.5", "--budget",
                         "1", "--steps", "5", "--out", str(path)])
        assert code == 0
    BUILD_SECONDS["whole"] = (time.monotonic() - start) / 2.0
    return paths


@pytest.fixture(scope="module")
def desk_ledger(ledger_pair):
    ledger, _ = cli.load_ledger_file(str(ledger_pair[0]))
    return ledger


@pytest.fixture(scope="module")
def robin_ledgers(tmp_path_factory):
    root = tmp_path_factory.mktemp("robin")
    out = {}
    start = time.monotonic()
    for phi in (0.0, 1.5708):
        path = root / ("robin_%s.json" % phi)
        code = cli.main(["construct", "--dim", "1", "--p", "1.5", "--budget",
                         "1", "--steps", "3", "--domain", "robin", "--phi",
                         str(phi), "--out", str(path)])
        assert code == 0
        out[phi], _ = cli.load_ledger_file(str(path))
    BUILD_SECONDS["robin"] = (time.monotonic() - start) / 2.0
    return out


@pytest.fixture(scope="module")
def design_matrix():
    """(d, lambda) over {1,2,3,5} x {0.5,1,2} at budgets (0.5, 0.5, 0.05)."""
    grid = {}
    for d in (1, 2, 3, 5):
        for lam in (0.5, 1.0, 2.0):
            grid[(d, lam)] = design_bump(d, d + 1.0, lam, 0.5, 0.5, 0.05)
    return grid


@pytest.fixture(scope="module")
def moderate_ledger():
    """Generous budgets keep step 1 on the resolvent-certified gamma path."""
    return build(1, 3.0, 8.0, 2)


def test_criterion_1_special_functions(rng):
    with criterion(1, "half-integer forms 1e-10, recurrence 1e-9, "
                      "derivative 1e-6 over 1000 samples"):
        start = time.monotonic()
        radii = rng.uniform(0.3, 30.0, 1000)
        angles = rng.uniform(-math.pi, math.pi, 1000)
        pts = radii * np.exp(1j * angles)
        pts.imag = np.clip(pts.imag, -5.0, 5.0)
        pts.imag[(pts.real < 0) & (np.abs(pts.imag) < 1e-6)] += 0.1

        for z in pts:
            z = complex(z)
            for order in (-1.5, -0.5, 0.5, 1.5):
                got = bessel_j(BesselQuery(order, z, 1e-10))
                want = half_integer_closed(order, z)
                assert abs(got - want) <= 1e-10 * abs(want)
        for z in pts[::4]:
            z = complex(z)
            for order in (-0.5, 0.0, 0.5, 1.0):
                j_lo = bessel_j(BesselQuery(order - 1.0, z))
                j_hi = bessel_j(BesselQuery(order + 1.0, z))
                rhs = (2.0 * order / z) * bessel_j(BesselQuery(order, z))
                scale = max(abs(j_lo), abs(j_hi), abs(rhs))
                assert abs(j_lo + j_hi - rhs) <= 1e-9 * scale
        h = 1e-6
        for z in pts[::10]:
            z = complex(z)
            for order in (0.0, 0.5, 1.0):
                num = (bessel_j(BesselQuery(order, z + h))
                       - bessel_j(BesselQuery(order, z - h))) / (2.0 * h)
                want = bessel_j(BesselQuery(order - 1.0, z)) \
                    - order * bessel_j(BesselQuery(order, z)) / z
                envelope = math.sqrt(2.0 / (math.pi * abs(z))) \
                    * math.exp(abs(z.imag))
                assert abs(num - want) <= 1e-6 * max(1.0, envelope)
        assert time.monotonic() - start < 10.0


def test_criterion_2_bump_closure(design_matrix):
    with criterion(2, "single-bump closure over {1,2,3,5}x{0.5,1,2} at "
                      "budgets (0.5, 0.5, 0.05)"):
        start = time.monotonic()
        for (d, lam), params in design_matrix.items():
            p = d + 1.0
            assert params.residual <= 1e-10, (d, lam)
            assert params.mu.imag < 0.0, (d, lam)
            assert abs(params.mu - lam) < 0.05, (d, lam)
            assert norm_p(params, p) < 0.5, (d, lam)
            assert norm_inf(params) < 0.5, (d, lam)
        assert time.monotonic() - start < 60.0


def test_criterion_3_asymptotic_law():
    with criterion(3, "wavenumber drift law at d=3, lambda=1 through m=40"):
        nu = 1.0
        re_drift, im_drift = [], []
        for m in range(1, 41):
            a = bumpmod.radius_for_index(3, nu, m)
            eta = bumpmod.solve_eta(nu, a)
            k = bumpmod.boundary_wavenumber(3, complex(nu, eta), a)
            re_drift.append(abs(k.real + nu) / eta)
            im_drift.append(abs(k.imag / eta - 1.0))
        # the half-integer ratio makes the law exact here: every index is
        # already inside the stated 0.1 envelope, at rounding-noise level
        assert all(v < 0.1 for v in re_drift)
        assert all(v < 0.1 for v in im_drift)
        assert re_drift[-1] < 1e-10 and im_drift[-1] < 1e-10


def test_criterion_4_oracle_triangle():
    with criterion(4, "secular/transfer/grid pairwise agreement on 10 bumps"):
        start = time.monotonic()
        specs = [(lam, 2.0, 0.45) for lam in (0.5, 0.8, 1.0, 1.25, 1.5, 1.75, 2.0)]
        specs += [(lam, 2.5, 0.6) for lam in (0.6, 1.1, 1.9)]
        assert len(specs) == 10
        for lam, budget, radius in specs:
            params = design_bump(1, 2.0, lam, budget, budget, radius)
            prob = eigensolve.SecularProblem(d=1, c=params.c, a=params.a,
                                             branch_ref=params.tau)
            sec = eigensolve.refine_eigen(prob, params.k)
            shift = 3.0 * params.a
            pot = eigensolve.StepPotential1D(
                (shift - params.a, shift + params.a), (params.c,))
            tra = eigensolve.transfer_eigen_1d(pot, params.k)
            gri = eigensolve.grid_oracle_1d(pot, sec.mu, 0.02)[0]
            assert abs(sec.mu - tra.mu) <= 1e-8
            assert abs(sec.mu - gri.mu) <= 1e-8 + gri.residual
            assert abs(tra.mu - gri.mu) <= 1e-8 + gri.residual
        assert time.monotonic() - start < 120.0


def test_criterion_5_whole_line_construction(ledger_pair, desk_ledger):
    with criterion(5, "5-step whole-line ledger: capture contract and "
                      "norm budget at p=3/2, budget 1"):
        assert len(desk_ledger.entries) == 5
        assert desk_ledger.failed_at is None
        for entry in desk_ledger.entries:
            q = float(entry.target.q)
            assert entry.verified
            assert entry.lambda_n.imag < 0.0
            assert abs(entry.lambda_n - q) < 1.0 / entry.target.m
        report = ltreport.norm_budget_check(desk_ledger)
        assert max(report.norm_p, report.norm_inf) < 1.0
        assert report.margin > 0.0
        assert BUILD_SECONDS["whole"] < 300.0


def test_criterion_6_robin_construction(robin_ledgers):
    with criterion(6, "3-step Robin half-line ledgers at phi in {0, 1.5708}"):
        for phi, ledger in robin_ledgers.items():
            assert len(ledger.entries) == 3
            for entry in ledger.entries:
                q = float(entry.target.q)
                assert entry.verified
                assert entry.lambda_n.imag < 0.0
                assert abs(entry.lambda_n - q) < 1.0 / entry.target.m
                assert entry.t - entry.bump.a > 0.0
            report = ltreport.norm_budget_check(ledger)
            assert max(report.norm_p, report.norm_inf) < 1.0
        assert BUILD_SECONDS["robin"] < 300.0


def _attack_entry(entries, entry, domain, phi):
    """Move the potential by gamma/2 on the supports; measure the
    eigenvalue displacement at full precision."""
    upto = [e for e in entries if e.n <= entry.n]
    base_pot = construct.step_potential(upto, domain, phi)
    pert_pot = construct.step_potential(
        upto, domain, phi, support_perturbation=entry.gamma_n / 2.0)
    seed = cmath.sqrt(entry.mu_n)
    if seed.imag < 0:
        seed = -seed
    k_base, _ = eigensolve._transfer_newton(base_pot, seed)
    k_pert, _ = eigensolve._transfer_newton(pert_pot, seed)
    with mpmath.workdps(50):
        moved = float(abs(mpc_of(k_pert) ** 2 - mpc_of(k_base) ** 2))
    anchor = abs(complex(k_base) ** 2 - entry.mu_n)
    return moved, anchor


def test_criterion_7_stability_attack(desk_ledger, moderate_ledger):
    with criterion(7, "gamma_n/2 support perturbations keep eigenvalues "
                      "inside the rho_n disk"):
        start = time.monotonic()
        for ledger in (desk_ledger, moderate_ledger):
            for entry in ledger.entries:
                moved, anchor = _attack_entry(ledger.entries, entry,
                                              ledger.domain, ledger.phi)
                rho = construct._dist_to_halfline(entry.mu_n) / 2.0
                assert moved < rho, (entry.n, moved, rho)
                assert anchor <= 16.0 * np.finfo(float).eps * abs(entry.mu_n) \
                    + entry.rho_n
        assert time.monotonic() - start < 120.0


def test_criterion_8_lt_violation_witness():
    with criterion(8, "eigenvalue-power sum exceeds 6 while the L^{3/2} "
                      "norm stays below 1"):
        targets = [Target(q, 1) for q in (1, 2, 3, 4, 5)]
        ledger = build(1, 1.5, 1.0, 5, targets=targets)
        sums = ltreport.lt_partial_sum(ledger)
        report = ltreport.norm_budget_check(ledger)
        assert sums[-1] > 6.0
        assert report.norm_p < 1.0 and report.norm_inf < 1.0
        assert all(s2 > s1 for s1, s2 in zip(sums, sums[1:]))
        increments = [sums[0]] + [b - a for a, b in zip(sums, sums[1:])]
        # increments track the targets 1..5: the sum grows without bound
        for n, inc in enumerate(increments, start=1):
            assert abs(inc - n) < 0.5


def test_criterion_9_l1_bound_sanity(design_matrix, desk_ledger, robin_ledgers):
    with criterion(9, "|mu|^(1/2) <= ||U||_1 / 2 for every 1-d bump built "
                      "anywhere in the suite"):
        bumps = [p for (d, _), p in design_matrix.items() if d == 1]
        bumps += [e.bump for e in desk_ledger.entries]
        for ledger in robin_ledgers.values():
            bumps += [e.bump for e in ledger.entries]
        assert len(bumps) >= 10
        for params in bumps:
            assert abs(params.mu) ** 0.5 <= params.a * abs(params.c)
        for ledger in (desk_ledger, *robin_ledgers.values()):
            assert ltreport.aad_check(ledger) == [True] * len(ledger.entries)


def test_criterion_10_determinism(ledger_pair):
    with criterion(10, "identical configurations give byte-identical "
                       "ledgers (timestamp aside)"):
        docs = []
        for path in ledger_pair:
            doc = json.loads(path.read_text())
            doc.pop("created")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
