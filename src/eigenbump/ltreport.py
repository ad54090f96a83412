"""Diagnostics that make the eigenvalue-sum blow-up quantitative.

For a selfadjoint potential the eigenvalue powers sum(|lambda|^{p-d/2})
are controlled by C * ||V||_p^p.  The ledgers built here keep
max(||V||_p, ||V||_inf) below a fixed budget while the partial sums S_N
grow without bound as targets walk out along the positive axis, so no
constant C can work once the potential is allowed to be complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bump as bumpmod
from .construct import ConstructionLedger
from .errors import LedgerError, NotApplicableError

AAD_TOL = 1e-12  # slack for |mu|^(1/2) <= ||U||_1 / 2 right at equality


@dataclass(frozen=True)
class NormReport:
    norm_p: float
    norm_inf: float
    budget: float
    margin: float
    minkowski_p: float      # sum of per-bump L^p budgets actually used
    quadrature_p: float | None
    exact: bool             # closed form exact (compact supports) or bound


def _require_verified(ledger: ConstructionLedger) -> None:
    if ledger.failed_at is not None:
        raise LedgerError(ledger.partial_note())
    for entry in ledger.entries:
        if not entry.verified or entry.lambda_n is None:
            raise LedgerError(
                "entry %d is not oracle-verified; eigenvalue sums over "
                "unverified ledgers would not mean anything" % entry.n)


def lt_partial_sum(ledger: ConstructionLedger) -> list:
    """S_N = sum_{n<=N} |lambda_n|^{p - d/2} for N = 1..len(entries).

    The constructed eigenvalues are simple (nonzero secular slope at each
    root), so each one is counted once.
    """
    _require_verified(ledger)
    exponent = ledger.p - ledger.d / 2.0
    sums = []
    acc = 0.0
    for entry in ledger.entries:
        acc += abs(entry.lambda_n) ** exponent
        sums.append(acc)
    return sums


def norm_budget_check(ledger: ConstructionLedger) -> NormReport:
    """Norms of the assembled potential against the budget.

    With compact supports (d in {1, 3}) the L^p norm is the exact
    disjoint-support sum and the sup norm the max over bumps; otherwise
    the overlapping r^-2 tails leave only the triangle-inequality bounds.
    For d = 1 a direct quadrature of the step potential is included as a
    consistency value.
    """
    entries = ledger.entries
    _check_disjoint(entries)
    p = ledger.p
    compact = ledger.d in (1, 3)
    if compact:
        norm_p_val = _lp_sum([bumpmod.norm_p(e.bump, p) for e in entries], p)
        norm_inf_val = max((bumpmod.norm_inf(e.bump) for e in entries), default=0.0)
    else:
        norm_p_val = sum(bumpmod.norm_p(e.bump, p) for e in entries)
        norm_inf_val = sum(bumpmod.norm_inf(e.bump) for e in entries)
    quad = None
    if ledger.d == 1:
        # piecewise-constant integrand: the quadrature is a finite sum
        quad = _lp_sum([abs(e.bump.c) * (2.0 * e.bump.a) ** (1.0 / p)
                        for e in entries], p)
    minkowski = sum(e.eps_n for e in entries)
    margin = ledger.budget - max(norm_p_val, norm_inf_val)
    return NormReport(norm_p=norm_p_val, norm_inf=norm_inf_val,
                      budget=ledger.budget, margin=margin,
                      minkowski_p=minkowski, quadrature_p=quad, exact=compact)


def _lp_sum(norms: list, p: float) -> float:
    """(sum n_i^p)^{1/p}, formed as max * (sum (n_i/max)^p)^{1/p} so that no
    p-th power leaves the double range."""
    top = max(norms, default=0.0)
    return top * sum((n / top) ** p for n in norms) ** (1.0 / p) if top else 0.0


def _check_disjoint(entries) -> None:
    supports = sorted((e.t - e.bump.a, e.t + e.bump.a) for e in entries)
    for (l1, r1), (l2, r2) in zip(supports, supports[1:]):
        if l2 <= r1:
            raise LedgerError("bump supports overlap: [%g, %g] and [%g, %g]"
                              % (l1, r1, l2, r2))


def aad_check(ledger: ConstructionLedger) -> list:
    """Per-bump sanity |mu|^(1/2) <= ||U||_1 / 2 = a |c| (a theorem on the
    line, so a failed verdict flags a solver problem, not new mathematics)."""
    if ledger.d != 1:
        raise NotApplicableError("the L^1 eigenvalue bound applies to d = 1 only")
    verdicts = []
    for entry in ledger.entries:
        half_l1 = entry.bump.a * abs(entry.bump.c)
        verdicts.append(bool(abs(entry.bump.mu) ** 0.5 <= half_l1 + AAD_TOL))
    return verdicts


def emit_cloud(ledger: ConstructionLedger) -> list:
    """Rows (n, q, m, Re/Im lambda, |lambda - q|, 1/m, S_n) for plotting."""
    _require_verified(ledger)
    sums = lt_partial_sum(ledger)
    rows = []
    for entry, s_n in zip(ledger.entries, sums):
        q_f = float(entry.target.q)
        rows.append({
            "n": entry.n,
            "q_num": entry.target.q.numerator,
            "q_den": entry.target.q.denominator,
            "m": entry.target.m,
            "lambda_re": entry.lambda_n.real,
            "lambda_im": entry.lambda_n.imag,
            "dist_to_target": abs(entry.lambda_n - q_f),
            "capture_radius": 1.0 / entry.target.m,
            "lt_partial_sum": s_n,
        })
    return rows
