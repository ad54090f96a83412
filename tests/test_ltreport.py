"""Eigenvalue-sum diagnostics over built ledgers."""

from dataclasses import replace
from fractions import Fraction

import pytest
from scipy.integrate import quad

from eigenbump import construct, ltreport
from eigenbump.bump import BumpParams
from eigenbump.construct import ConstructionLedger, LedgerEntry, Target, build
from eigenbump.errors import LedgerError, NotApplicableError


@pytest.fixture(scope="module")
def ledger():
    return build(1, 3.0, 8.0, 3)


class TestPartialSums:
    def test_single_entry_near_target(self, ledger):
        sums = ltreport.lt_partial_sum(ledger)
        # first target is q=1, so S_1 ~ |lambda_1|^{p-d/2} ~ 1
        exponent = ledger.p - 0.5
        assert sums[0] == pytest.approx(abs(ledger.entries[0].lambda_n) ** exponent,
                                        rel=1e-14)
        assert abs(sums[0] - 1.0) < 0.5

    def test_nondecreasing(self, ledger):
        sums = ltreport.lt_partial_sum(ledger)
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))

    def test_matches_manual_sum(self, ledger):
        sums = ltreport.lt_partial_sum(ledger)
        exponent = ledger.p - 0.5
        manual = 0.0
        for entry, s_n in zip(ledger.entries, sums):
            manual += abs(entry.lambda_n) ** exponent
            assert s_n == pytest.approx(manual, rel=1e-14)

    def test_refuses_unverified(self, ledger):
        broken = ConstructionLedger(d=1, p=3.0, budget=8.0,
                                    entries=[replace_verified(ledger.entries[0])])
        with pytest.raises(LedgerError):
            ltreport.lt_partial_sum(broken)

    def test_refuses_partial(self, ledger):
        partial = ConstructionLedger(d=1, p=3.0, budget=8.0,
                                     entries=list(ledger.entries),
                                     failed_at=2, failure="injected")
        with pytest.raises(LedgerError):
            ltreport.lt_partial_sum(partial)

    def test_partial_note_names_reason_only_when_known(self):
        partial = ConstructionLedger(d=1, p=3.0, budget=8.0, failed_at=2,
                                     failure="injected")
        with pytest.raises(LedgerError, match=r"step 2\): injected$"):
            ltreport.lt_partial_sum(partial)
        partial.failure = None
        with pytest.raises(LedgerError, match=r"step 2\)$"):
            ltreport.lt_partial_sum(partial)


class TestNormBudget:
    def test_margins_positive(self, ledger):
        report = ltreport.norm_budget_check(ledger)
        assert report.margin > 0.0
        assert report.norm_p < ledger.budget
        assert report.norm_inf < ledger.budget
        assert report.exact

    def test_disjoint_support_additivity(self, ledger):
        from eigenbump.bump import norm_p
        report = ltreport.norm_budget_check(ledger)
        total = sum(norm_p(e.bump, ledger.p) ** ledger.p for e in ledger.entries)
        assert report.norm_p ** ledger.p == pytest.approx(total, rel=1e-14)

    def test_sup_norm_is_max_over_bumps(self, ledger):
        from eigenbump.bump import norm_inf
        report = ltreport.norm_budget_check(ledger)
        assert report.norm_inf == max(norm_inf(e.bump) for e in ledger.entries)

    def test_quadrature_consistency(self, ledger):
        # honest numerical integration of |V|^p over the assembled steps
        report = ltreport.norm_budget_check(ledger)
        pot = construct.step_potential(ledger.entries)
        total = 0.0
        for j in range(len(pot.breakpoints) - 1):
            lo, hi = pot.breakpoints[j], pot.breakpoints[j + 1]
            val = abs(pot.values[j])
            if val == 0.0:
                continue
            part, _ = quad(lambda x: val ** ledger.p, lo, hi, epsrel=1e-12)
            total += part
        assert report.quadrature_p == pytest.approx(total ** (1.0 / ledger.p),
                                                    rel=1e-8)
        assert report.norm_p == pytest.approx(report.quadrature_p, rel=1e-8)

    def test_minkowski_bound_respected(self, ledger):
        report = ltreport.norm_budget_check(ledger)
        assert report.norm_p <= report.minkowski_p

    def test_overlap_rejected(self, ledger):
        clone = replace(ledger.entries[0])
        clone_other = replace(ledger.entries[0], n=2,
                              t=ledger.entries[0].t + 0.1)
        broken = ConstructionLedger(d=1, p=3.0, budget=8.0,
                                    entries=[clone, clone_other])
        with pytest.raises(LedgerError):
            ltreport.norm_budget_check(broken)


class TestAADCheck:
    def test_designed_bumps_pass(self, ledger):
        verdicts = ltreport.aad_check(ledger)
        assert verdicts == [True] * len(ledger.entries)

    def test_fabricated_violation_flagged(self):
        # |mu| = 4 with ||U||_1 = 2 a |c| = 1 breaks |mu|^(1/2) <= ||U||_1/2
        tau = complex(2.0, 0.05)
        k = complex(0.0, 2.0)  # mu = -4
        fake_bump = BumpParams(d=1, lam=4.0, nu=2.0, m=0, a=0.1, eta=0.05,
                               tau=tau, k=k)
        assert abs(fake_bump.mu) == pytest.approx(4.0, rel=1e-12)
        entry = LedgerEntry(n=1, target=Target(Fraction(4), 1), eps_n=1.0,
                            delta_n=1.0, bump=fake_bump, t=0.0,
                            mu_n=fake_bump.mu, residual_mu=0.0, rho_n=1.0,
                            gamma_n=0.1, gamma_warning=True,
                            lambda_n=fake_bump.mu, residual_lambda=0.0,
                            dist_lambda_mu=0.0, lambda_within_rho=True,
                            verified=True)
        fake = ConstructionLedger(d=1, p=2.0, budget=8.0, entries=[entry])
        assert fake_bump.a * abs(fake_bump.c) < abs(fake_bump.mu) ** 0.5
        assert ltreport.aad_check(fake) == [False]

    def test_not_applicable_beyond_d1(self):
        other = ConstructionLedger(d=3, p=4.0, budget=8.0)
        with pytest.raises(NotApplicableError):
            ltreport.aad_check(other)


class TestEmitCloud:
    def test_row_count_and_contracts(self, ledger):
        rows = ltreport.emit_cloud(ledger)
        assert len(rows) == len(ledger.entries)
        for row in rows:
            assert row["dist_to_target"] < row["capture_radius"]
            assert row["lambda_im"] < 0.0
        sums = [row["lt_partial_sum"] for row in rows]
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))


def replace_verified(entry):
    return replace(entry, verified=False)
