"""Enumeration, budgets, shifts, stability radii and full builds."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbump import bump as bumpmod
from eigenbump import construct, eigensolve, ltreport
from eigenbump.construct import (ConstructionLedger, Target, budgets, build,
                                 choose_shift, enumerate_targets,
                                 estimate_gamma, step_potential, target_index)
from eigenbump.errors import (ConstructionError, GridResolutionError,
                              InvalidArgumentError, LedgerError,
                              ShiftSearchError)


@pytest.fixture(scope="module")
def generous_ledger():
    """Moderate scales: step 1 keeps a resolvent-certified gamma."""
    return build(1, 3.0, 8.0, 3)


@pytest.fixture(scope="module")
def robin_ledger():
    return build(1, 3.0, 8.0, 2, domain="robin", phi=math.pi / 2.0)


class TestEnumeration:
    def test_first_element(self):
        t = enumerate_targets(1)
        assert t.q == Fraction(1) and t.m == 1

    def test_known_prefix(self):
        got = [(enumerate_targets(n).q, enumerate_targets(n).m)
               for n in range(1, 7)]
        assert got == [(Fraction(1), 1), (Fraction(1, 2), 1), (Fraction(1), 2),
                       (Fraction(2), 1), (Fraction(1, 2), 2), (Fraction(1), 3)]

    def test_injective_over_a_million(self):
        seen = set()
        for n in range(1, 10 ** 6 + 1):
            t = enumerate_targets(n)
            key = (t.q.numerator, t.q.denominator, t.m)
            assert key not in seen
            seen.add(key)

    def test_small_pairs_all_reachable(self):
        for num in range(1, 11):
            for den in range(1, 11):
                q = Fraction(num, den)
                for m in range(1, 11):
                    n = target_index(q, m)
                    t = enumerate_targets(n)
                    assert (t.q, t.m) == (q, m)

    @given(st.integers(min_value=1, max_value=10 ** 12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, n):
        t = enumerate_targets(n)
        assert target_index(t.q, t.m) == n

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_targets(0)
        with pytest.raises(InvalidArgumentError):
            Target(q=Fraction(-1, 2), m=1)
        with pytest.raises(InvalidArgumentError):
            Target(q=Fraction(1, 2), m=0)


class TestBudgets:
    def test_first_step(self):
        eps, delta = budgets(1, 1.0, math.inf)
        assert eps == pytest.approx(6.0 / math.pi ** 2, rel=1e-15)
        assert delta == eps

    def test_partial_sums_stay_below_total(self):
        total = 1.0
        acc = 0.0
        for n in range(1, 2001):
            eps, _ = budgets(n, total, math.inf)
            acc += eps
            assert acc < total

    def test_gamma_cap_example(self):
        _, delta = budgets(2, 1.0, 0.01)
        assert delta == pytest.approx(6.0 * 0.01 / (math.pi ** 2 * 4.0), rel=1e-12)
        assert delta == pytest.approx(1.5198e-3, rel=1e-4)

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.floats(min_value=1e-6, max_value=1e3),
           st.floats(min_value=1e-9, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_formulas(self, n, total, gamma_prev):
        eps, delta = budgets(n, total, gamma_prev)
        base = 6.0 / (math.pi ** 2 * n * n)
        assert eps == base * total
        assert delta == base * min(gamma_prev, total)
        assert delta <= eps or gamma_prev > total


class TestStepPotential:
    def test_assembly_with_gaps(self, moderate_bumps):
        entries = []
        t = 0.0
        for idx, params in enumerate(moderate_bumps, start=1):
            t += 4.0 * params.a
            entries.append(_entry(idx, params, t))
        pot = step_potential(entries)
        assert len(pot.breakpoints) == 6
        assert pot.values[1] == 0.0 and pot.values[3] == 0.0
        assert pot.values[0] == entries[0].bump.c

    def test_overlap_rejected(self, moderate_bump):
        entries = [_entry(1, moderate_bump, 0.0), _entry(2, moderate_bump, 1.0)]
        with pytest.raises(LedgerError):
            step_potential(entries)

    def test_support_perturbation_hits_bumps_only(self, moderate_bump):
        entries = [_entry(1, moderate_bump, 0.0)]
        pot = step_potential(entries, support_perturbation=0.5)
        assert pot.values[0] == moderate_bump.c + 0.5


class TestChooseShift:
    def test_empty_ledger_takes_t_min(self, moderate_bump):
        ledger = ConstructionLedger(d=1, p=2.0, budget=8.0)
        t, mu_t, res, _ = choose_shift(ledger, moderate_bump, 0.25)
        assert t == 2.0 * moderate_bump.a
        assert abs(mu_t - moderate_bump.mu) < 1e-9
        assert res <= 1e-10

    def test_previous_far_bump_accepts_first_candidate(self):
        # eta * a ~ 2 already makes the tail coupling e^{-2 eta gap} tiny
        first = bumpmod.design_bump(1, 2.0, 0.5, 1.0, 1.0, 0.2)
        second = bumpmod.design_bump(1, 2.0, 1.0, 1.0, 1.0, 0.2)
        ledger = ConstructionLedger(d=1, p=2.0, budget=8.0,
                                    entries=[_entry(1, first, 2.0 * first.a)])
        t, mu_t, _, _ = choose_shift(ledger, second, 0.2)
        assert t == (2.0 * first.a + first.a) + 2.0 * second.a
        assert abs(mu_t - second.mu) < 0.02

    def test_coupling_shrinks_with_doubling(self, moderate_bumps):
        first, second = moderate_bumps[0], moderate_bumps[1]
        base = 2.0 * first.a + first.a
        devs = []
        for t in (base + 2.0 * second.a, 2.0 * (base + 2.0 * second.a)):
            pot = step_potential([_entry(1, first, 2.0 * first.a)],
                                 extra=(second, t))
            got = eigensolve.transfer_eigen_1d(pot, second.k)
            devs.append(abs(got.mu - second.mu))
        assert devs[1] < devs[0] or devs[0] < 1e-13

    def test_unreachable_tolerance_raises(self, moderate_bump):
        # a bump whose recorded wavenumber is not an eigen-wavenumber keeps
        # |mu_t - mu| bounded away from zero through every doubling
        from dataclasses import replace
        fake = replace(moderate_bump, k=moderate_bump.k + 0.05)
        ledger = ConstructionLedger(d=1, p=2.0, budget=8.0)
        with pytest.raises(ShiftSearchError) as err:
            choose_shift(ledger, fake, 1e-3)
        assert len(err.value.deviations) == construct.SHIFT_DOUBLING_CAP


class TestEstimateGamma:
    def test_resolvent_certificate_on_moderate_ledger(self, generous_ledger):
        entry = generous_ledger.entries[0]
        assert not entry.gamma_warning
        assert 0.0 < entry.gamma_n <= entry.rho_n / 2.0

    def test_gamma_monotone_nonincreasing(self, generous_ledger):
        gammas = [e.gamma_n for e in generous_ledger.entries]
        assert all(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_fallback_is_flagged(self, generous_ledger):
        assert generous_ledger.entries[1].gamma_warning
        e = generous_ledger.entries[1]
        assert e.gamma_n <= e.rho_n / 10.0 + 1e-18

    def test_fallback_logs_its_reason(self, generous_ledger, monkeypatch,
                                      caplog):
        def failing(*args):
            raise GridResolutionError("grid says no")
        monkeypatch.setattr(construct.eigensolve, "grid_oracle_1d", failing)
        # step 1 alone is small enough to grid, so the oracle is reached
        first = replace(generous_ledger, entries=generous_ledger.entries[:1])
        with caplog.at_level("INFO", logger="eigenbump.construct"):
            got = estimate_gamma(first, first.entries[0].mu_n)
        assert got.warning and got.method == "fallback"
        assert "gamma step: grid says no; using fallback" in caplog.messages

    def test_d2_build_logs_fallback_reason(self, caplog):
        with caplog.at_level("INFO", logger="eigenbump.construct"):
            ledger = build(2, 3.0, 1.0, 1)
        assert ledger.entries[0].gamma_warning
        assert ("gamma step: no 1-d entries to grid (d = 2); using fallback"
                in caplog.messages)

    def test_perturbation_attack(self, generous_ledger):
        # an explicit real perturbation of size gamma/2 on the supports must
        # keep an eigenvalue inside the rho-circle
        for upto in (1, 2):
            entries = generous_ledger.entries[:upto]
            target = entries[-1]
            pot = step_potential(entries,
                                 support_perturbation=target.gamma_n / 2.0)
            seed = complex(target._k_mu)
            got = eigensolve.transfer_eigen_1d(pot, seed)
            assert abs(got.mu - target.mu_n) < target.rho_n

    def test_zero_perturbation_is_identity(self, generous_ledger):
        entries = generous_ledger.entries[:1]
        target = entries[0]
        pot = step_potential(entries, support_perturbation=0.0)
        got = eigensolve.transfer_eigen_1d(pot, complex(target._k_mu))
        assert abs(got.mu - target.mu_n) < 1e-12

    @staticmethod
    def _sweep(ledger, monkeypatch, cold):
        """estimate_gamma on the ledger's last entry, recording every
        grid_sigma_min call; ``cold`` drops the warm starts."""
        original = eigensolve.grid_sigma_min
        calls = []

        def spy(pot, z, x_lo, x_hi, n, start=None):
            sigma, vec = original(pot, z, x_lo, x_hi, n,
                                  start=None if cold else start)
            calls.append((n, start, vec))
            return sigma, vec
        with monkeypatch.context() as patch:
            patch.setattr(construct.eigensolve, "grid_sigma_min", spy)
            return estimate_gamma(ledger, ledger.entries[-1].mu_n), calls

    @pytest.mark.parametrize("case", ["generous-step-1", "grid-whole-129/128",
                                      "grid-robin-phi-0"])
    def test_warm_sweep_matches_cold(self, case, generous_ledger, monkeypatch):
        if case == "generous-step-1":
            ledger = replace(generous_ledger,
                             entries=generous_ledger.entries[:1])
        elif case == "grid-whole-129/128":
            ledger = build(1, 3.0, 8.0, 1, targets=[Target(Fraction(129, 128), 1)])
        else:
            ledger = build(1, 3.0, 8.0, 1, domain="robin", phi=0.0)
        warm, calls = self._sweep(ledger, monkeypatch, cold=False)
        cold, _ = self._sweep(ledger, monkeypatch, cold=True)
        assert not warm.warning and not cold.warning
        assert warm.gamma == pytest.approx(cold.gamma, rel=1e-10)
        # sweep order: the coarse grid walks the circle from the ramp,
        # each point starting from the one before; the fine grid starts
        # each point from its own coarse vector
        points = construct.GAMMA_CIRCLE_POINTS
        assert len(calls) == 2 * points
        coarse, fine = calls[:points], calls[points:]
        assert coarse[0][1] is None
        assert all(now[1] is before[2] for before, now in zip(coarse, coarse[1:]))
        assert all(f[1] is c[2] for c, f in zip(coarse, fine))
        assert all(f[0] == 2 * coarse[0][0] + 1 for f in fine)

    def test_operator_built_once_per_grid(self, generous_ledger, monkeypatch):
        # the oracle and all 32 sweep shifts share the coarse and the fine
        # grid's operator, so the cell averages are formed twice
        first = replace(generous_ledger, entries=generous_ledger.entries[:1])
        original = eigensolve._cell_values
        calls = []

        def spy(*args):
            calls.append(len(args[1]))
            return original(*args)
        monkeypatch.setattr(eigensolve, "_cell_values", spy)
        eigensolve._fd_operator.cache_clear()
        got = estimate_gamma(first, first.entries[0].mu_n)
        assert got.method == "resolvent"
        assert len(calls) == 2 and calls[1] == 2 * calls[0] + 1

    def test_sigma_cap_falls_back(self, generous_ledger, monkeypatch, caplog):
        # a sweep point that does not settle within SIGMA_ITER_CAP steps
        # leaves the flagged rho/10 fallback, with the reason logged
        first = replace(generous_ledger, entries=generous_ledger.entries[:1])
        monkeypatch.setattr(eigensolve, "SIGMA_ITER_CAP", 1)
        with caplog.at_level("INFO", logger="eigenbump.construct"):
            got = estimate_gamma(first, first.entries[0].mu_n)
        assert got.warning and got.method == "fallback"
        assert got.gamma == got.rho / 10.0
        assert ("gamma step: sigma_min Lanczos: Ritz residual still above "
                "tolerance after 1 steps; using fallback" in caplog.messages)

    @pytest.mark.parametrize("case,cap", [("grid-whole", 240), ("grid-robin", 260)])
    def test_sweep_solve_count(self, case, cap, generous_ledger, zgttrs_calls):
        # the bench's seed-0 one-step ledgers: every tridiagonal solve of
        # estimate_gamma, the oracle's and the 32 sweep points'.  Lanczos
        # makes 215 and 239; power iteration on the same sweep made 309
        # and 485
        if case == "grid-whole":
            ledger = replace(generous_ledger, entries=generous_ledger.entries[:1])
        else:
            ledger = build(1, 3.0, 8.0, 1, domain="robin", phi=0.0)
        built = len(zgttrs_calls)
        got = estimate_gamma(ledger, ledger.entries[-1].mu_n)
        assert got.method == "resolvent"
        assert len(zgttrs_calls) - built <= cap

    def test_singular_sweep_shift_falls_back(self, generous_ledger,
                                             monkeypatch, caplog):
        # the oracle's two factorisations succeed; the first sweep shift's
        # reports a zero pivot
        import scipy.linalg.lapack
        first = replace(generous_ledger, entries=generous_ledger.entries[:1])
        original = scipy.linalg.lapack.zgttrf
        calls = []

        def zgttrf(*args, **kwargs):
            calls.append(None)
            *factors, info = original(*args, **kwargs)
            return (*factors, 1 if len(calls) > 2 else info)
        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", zgttrf)
        with caplog.at_level("INFO", logger="eigenbump.construct"):
            got = estimate_gamma(first, first.entries[0].mu_n)
        assert got.warning and got.method == "fallback"
        assert got.gamma == got.rho / 10.0
        assert len(calls) == 3
        assert ("gamma step: H - z is singular on the grid (info 1); "
                "using fallback" in caplog.messages)

    def test_rejects_real_mu(self, generous_ledger):
        with pytest.raises(InvalidArgumentError):
            estimate_gamma(generous_ledger, complex(1.0, 0.0))


class TestBuild:
    def test_moderate_build_verified(self, generous_ledger):
        assert generous_ledger.failed_at is None
        assert len(generous_ledger.entries) == 3
        for e in generous_ledger.entries:
            q = float(e.target.q)
            assert e.verified
            assert abs(e.lambda_n - q) < 1.0 / e.target.m
            assert e.lambda_n.imag < 0.0
            assert abs(e.mu_n - q) < 1.0 / (2.0 * e.target.m)
            assert e.lambda_within_rho
            # capture decomposition: both addends logged and consistent
            assert e.dist_lambda_mu + abs(e.mu_n - q) < 1.0 / e.target.m

    def test_tail_budget_property(self, generous_ledger):
        entries = generous_ledger.entries
        for i, e in enumerate(entries[:-1]):
            tail = sum(later.delta_n for later in entries[i + 1:])
            assert tail < e.gamma_n

    def test_budget_series_below_total(self, generous_ledger):
        total = sum(max(e.eps_n, e.delta_n) for e in generous_ledger.entries)
        assert total < generous_ledger.budget

    def test_norm_budget_every_prefix(self, generous_ledger):
        for upto in range(1, len(generous_ledger.entries) + 1):
            prefix = ConstructionLedger(
                d=1, p=generous_ledger.p, budget=generous_ledger.budget,
                entries=generous_ledger.entries[:upto])
            report = ltreport.norm_budget_check(prefix)
            assert report.margin > 0.0
            assert report.norm_p <= sum(e.eps_n for e in prefix.entries)

    def test_supports_disjoint(self, generous_ledger):
        spans = sorted((e.t - e.bump.a, e.t + e.bump.a)
                       for e in generous_ledger.entries)
        for (_, r1), (l2, _) in zip(spans, spans[1:]):
            assert l2 > r1

    def test_single_step_reduces_to_standalone(self):
        ledger = build(1, 3.0, 8.0, 1)
        e = ledger.entries[0]
        assert abs(e.lambda_n - e.bump.mu) < 1e-9

    def test_zero_steps(self):
        ledger = build(1, 1.5, 1.0, 0)
        assert ledger.entries == [] and ledger.failed_at is None

    def test_robin_build(self, robin_ledger):
        assert robin_ledger.domain == "robin"
        for e in robin_ledger.entries:
            assert e.verified and e.lambda_n.imag < 0.0
            assert abs(e.lambda_n - float(e.target.q)) < 1.0 / e.target.m
            assert e.t - e.bump.a > 0.0

    def test_explicit_targets(self):
        ledger = build(1, 2.0, 8.0, 2,
                       targets=[Target(Fraction(1), 1), Target(Fraction(3), 1)])
        assert [float(e.target.q) for e in ledger.entries] == [1.0, 3.0]
        assert all(e.verified for e in ledger.entries)

    def test_higher_dimension_standalone_only(self):
        ledger = build(3, 4.0, 8.0, 2)
        for e in ledger.entries:
            assert not e.verified
            assert e.gamma_warning
            assert e.lambda_n == e.mu_n
        spans = sorted((e.t - e.bump.a, e.t + e.bump.a) for e in ledger.entries)
        for (_, r1), (l2, _) in zip(spans, spans[1:]):
            gap = l2 - r1
            im_k = min(e.bump.k.imag for e in ledger.entries)
            assert math.exp(-im_k * gap) < 1e-10

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            build(1, 0.5, 1.0, 1)  # p <= d
        with pytest.raises(InvalidArgumentError):
            build(2, 3.0, 1.0, 1, domain="robin", phi=0.5)  # robin needs d=1
        with pytest.raises(InvalidArgumentError):
            build(1, 2.0, 1.0, 1, domain="robin", phi=4.0)  # phi out of range
        with pytest.raises(InvalidArgumentError):
            build(1, 2.0, -1.0, 1)

    def test_determinism(self):
        first = build(1, 3.0, 8.0, 2)
        second = build(1, 3.0, 8.0, 2)
        for e1, e2 in zip(first.entries, second.entries):
            assert e1.bump == e2.bump
            assert e1.t == e2.t
            assert e1.mu_n == e2.mu_n
            assert e1.lambda_n == e2.lambda_n
            assert e1.gamma_n == e2.gamma_n

    def test_partial_failure_carries_ledger(self, monkeypatch):
        # force the second design to fail: the partial ledger must surface
        original = bumpmod.design_bump
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise InvalidArgumentError("injected failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(construct.bumpmod, "design_bump", failing)
        with pytest.raises(ConstructionError) as err:
            build(1, 3.0, 8.0, 2)
        assert err.value.ledger is not None
        assert len(err.value.ledger.entries) == 1
        assert err.value.ledger.failed_at == 2


def _entry(n, params, t):
    return construct.LedgerEntry(
        n=n, target=Target(q=Fraction(1), m=1), eps_n=1.0, delta_n=1.0,
        bump=params, t=t, mu_n=params.mu, residual_mu=params.residual,
        rho_n=abs(params.mu.imag) / 2.0, gamma_n=abs(params.mu.imag) / 20.0,
        gamma_warning=True, lambda_n=params.mu, residual_lambda=0.0,
        dist_lambda_mu=0.0, lambda_within_rho=True, verified=True,
        _k_mu=params.k)
