"""Command-line front end: design bumps, run constructions, verify and
export ledgers.

Exit codes: 0 success, 2 validation error, 3 partial construction,
4 verification failure.  The ledger is a single JSON document with
complex numbers as [re, im] pairs serialised at full round-trip
precision; identical configurations produce byte-identical files apart
from the "created" timestamp.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import math
import os
import sys
from fractions import Fraction

from . import construct, eigensolve, ltreport, specfun
from .bump import BumpParams, design_bump, norm_inf, norm_p
from .construct import ConstructionLedger, LedgerEntry, Target
from .errors import ConstructionError, EigenbumpError, InvalidArgumentError

log = logging.getLogger("eigenbump.cli")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARTIAL = 3
EXIT_VERIFY = 4

LEDGER_VERSION = 1
# verify accepts |mu - lambda| <= VERIFY_TOL (1 + |lambda|), or + grid residual
VERIFY_TOL = 1e-8


def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _uc(pair) -> complex:
    return complex(_finite(pair[0]), _finite(pair[1]))


def _number(value) -> float:
    if type(value) not in (int, float):  # a JSON number: not a bool or string
        raise InvalidArgumentError("not a number: %r" % (value,))
    return float(value)


def _finite(value) -> float:
    x = _number(value)
    if not math.isfinite(x):
        raise InvalidArgumentError("non-finite number %r" % x)
    return x


def _flag(value) -> bool:
    if type(value) is not bool:  # a JSON boolean: not a number or string
        raise InvalidArgumentError("not a boolean: %r" % (value,))
    return value


def _integer(value) -> int:
    if type(value) is not int:  # a JSON integer: not a bool, float or string
        raise InvalidArgumentError("not an integer: %r" % (value,))
    return value


def _phi(domain, phi) -> float | None:
    """A ledger's phi: null on the whole line, in [0, pi) on the Robin one."""
    if domain == "whole" and phi is None:
        return None
    if domain == "robin" and phi is not None and 0.0 <= _finite(phi) < math.pi:
        return _finite(phi)
    raise InvalidArgumentError("phi %r does not fit domain %r" % (phi, domain))


def ledger_to_doc(ledger: ConstructionLedger, steps: int, created: str) -> dict:
    entries = []
    for e in ledger.entries:
        entries.append({
            "n": e.n,
            "q": [e.target.q.numerator, e.target.q.denominator],
            "m": e.target.m,
            "bump": {
                "m_index": e.bump.m,
                "a": e.bump.a,
                "eta": e.bump.eta,
                "c": _c(e.bump.c),
                "mu": _c(e.bump.mu),
                "k": _c(e.bump.k),
                "nu": e.bump.nu,
                "lambda_target": e.bump.lam,
                "residual": e.bump.residual,
            },
            "t": e.t,
            "gamma": e.gamma_n,
            "lambda": _c(e.lambda_n) if e.lambda_n is not None else None,
            "residual": e.residual_lambda,
            "verified": bool(e.verified),
            "eps": e.eps_n,
            "delta": e.delta_n,
            "mu_n": _c(e.mu_n),
            "residual_mu": e.residual_mu,
            "rho": e.rho_n,
            "dist_lambda_mu": e.dist_lambda_mu,
            "lambda_within_rho": bool(e.lambda_within_rho),
            "gamma_warning": bool(e.gamma_warning),
        })
    return {
        "version": LEDGER_VERSION,
        "created": created,
        "config": {
            "dim": ledger.d,
            "p": ledger.p,
            "budget": ledger.budget,
            "domain": ledger.domain,
            "phi": ledger.phi,
            "steps": steps,
        },
        "entries": entries,
        "failed_at": ledger.failed_at,
    }


def doc_to_ledger(doc: dict) -> tuple[ConstructionLedger, dict]:
    """The ledger and its metadata; InvalidArgumentError for a document
    that is not a well-formed ledger of version LEDGER_VERSION."""
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != LEDGER_VERSION:
        raise InvalidArgumentError("unsupported ledger version %r (expected %d)"
                                   % (version, LEDGER_VERSION))
    try:
        cfg = doc["config"]
        failed_at = doc.get("failed_at")
        ledger = ConstructionLedger(d=_integer(cfg["dim"]), p=_finite(cfg["p"]),
                                    budget=_finite(cfg["budget"]), domain=cfg["domain"],
                                    phi=_phi(cfg["domain"], cfg["phi"]),
                                    failed_at=None if failed_at is None else _integer(failed_at))
        for rec in doc["entries"]:
            b = rec["bump"]
            nu, eta = _finite(b["nu"]), _finite(b["eta"])
            bump_params = BumpParams(
                d=ledger.d, lam=_finite(b["lambda_target"]), nu=nu,
                m=_integer(b["m_index"]), a=_finite(b["a"]), eta=eta,
                tau=complex(nu, eta), k=_uc(b["k"]),
                residual=_finite(b["residual"]))
            entry = LedgerEntry(
                n=_integer(rec["n"]),
                target=Target(q=Fraction(_integer(rec["q"][0]), _integer(rec["q"][1])),
                              m=_integer(rec["m"])),
                eps_n=_finite(rec["eps"]), delta_n=_finite(rec["delta"]),
                bump=bump_params, t=_finite(rec["t"]), mu_n=_uc(rec["mu_n"]),
                residual_mu=_finite(rec["residual_mu"]), rho_n=_finite(rec["rho"]),
                gamma_n=_finite(rec["gamma"]),
                gamma_warning=_flag(rec["gamma_warning"]),
                lambda_n=_uc(rec["lambda"]) if rec["lambda"] is not None else None,
                # NaN in partial ledgers: no lambda was located
                residual_lambda=_number(rec["residual"]),
                dist_lambda_mu=_number(rec["dist_lambda_mu"]),
                lambda_within_rho=_flag(rec["lambda_within_rho"]),
                verified=_flag(rec["verified"]),
                _k_mu=specfun.upper_sqrt(_uc(rec["mu_n"])))
            ledger.entries.append(entry)
        if ledger.failed_at is None and any(e.lambda_n is None for e in ledger.entries):
            raise InvalidArgumentError("a complete ledger has an entry without lambda")
        meta = {"version": doc["version"], "created": doc["created"],
                "steps": _integer(cfg["steps"])}
        return ledger, meta
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidArgumentError("ledger schema mismatch: %s" % exc) from exc


def dump_ledger(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_ledger_file(path: str) -> tuple[ConstructionLedger, dict]:
    """``doc_to_ledger`` of a JSON file; every way the file can fail to be
    a ledger is an InvalidArgumentError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InvalidArgumentError("cannot read ledger %s: %s" % (path, exc)) from exc
    return doc_to_ledger(doc)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands

def cmd_bump(args) -> int:
    params = design_bump(args.dim, args.p, args.lam, args.eps, args.delta,
                         args.r, m_cap=args.m_cap)
    payload = {
        "dim": params.d,
        "lambda": params.lam,
        "nu": params.nu,
        "m_index": params.m,
        "a": params.a,
        "eta": params.eta,
        "tau": _c(params.tau),
        "k": _c(params.k),
        "c": _c(params.c),
        "mu": _c(params.mu),
        "secular_residual": params.residual,
        "norm_p": norm_p(params, args.p),
        "norm_inf": norm_inf(params),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return EXIT_OK


def _parse_targets(spec: str):
    """Targets from 'q[:m],q[:m],...'; InvalidArgumentError names the
    first malformed entry."""
    targets = []
    for part in spec.split(","):
        q_str, colon, m_str = part.strip().partition(":")
        try:
            targets.append(Target(q=Fraction(q_str),
                                  m=int(m_str) if colon else 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(
                "malformed --targets entry %r: expected q or q:m with q a "
                "positive rational and m a positive integer" % part) from exc
    return targets


def cmd_construct(args) -> int:
    phi = args.phi if args.domain == "robin" else 0.0
    targets = _parse_targets(args.targets) if args.targets else None
    created = datetime.datetime.now(datetime.timezone.utc).isoformat()
    fresh = not os.path.lexists(args.out)
    open(args.out, "a", encoding="utf-8").close()  # a refused path fails before step 1
    try:
        ledger = construct.build(args.dim, args.p, args.budget, args.steps,
                                 domain=args.domain, phi=phi, targets=targets,
                                 m_cap=args.m_cap)
        code = EXIT_OK
    except ConstructionError as exc:
        ledger = exc.ledger
        print("construction stopped at step %s: %s" % (exc.failed_at, exc),
              file=sys.stderr)
        code = EXIT_PARTIAL
    except BaseException:
        if fresh:
            os.remove(args.out)
        raise
    doc = ledger_to_doc(ledger, args.steps, created)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dump_ledger(doc))
    log.info("wrote %s (%d entries)", args.out, len(ledger.entries))
    return code


def cmd_verify(args) -> int:
    ledger, _ = load_ledger_file(args.ledger)
    if ledger.failed_at is not None:
        print("error: %s; only complete ledgers are verified"
              % ledger.partial_note(), file=sys.stderr)
        return EXIT_VALIDATION
    if ledger.d != 1:
        print("error: only d=1 ledgers are oracle-verifiable", file=sys.stderr)
        return EXIT_VALIDATION
    if not ledger.entries:
        print("empty ledger: vacuously verified")
        return EXIT_OK
    pot = construct.step_potential(ledger.entries, ledger.domain, ledger.phi)

    worst = 0.0
    failures = []
    for entry in ledger.entries:
        lam = entry.lambda_n
        k_lam = specfun.upper_sqrt(lam)
        try:
            if args.oracle == "transfer":
                located = eigensolve.transfer_eigen_1d(pot, k_lam)
                tol = VERIFY_TOL * (1.0 + abs(lam))
            else:
                # window the operator around this entry; distant bumps sit
                # below the eigenfunction tail the margin already ignores
                window = construct.windowed_potential(
                    ledger, entry, eigensolve.tail_margin(k_lam))
                radius = max(1e-6, 0.5 / entry.target.m)
                results = eigensolve.grid_oracle_1d(window, lam, radius)
                if not results:
                    raise EigenbumpError("grid oracle found nothing in the disk")
                located = results[0]
                tol = VERIFY_TOL + located.residual
        except EigenbumpError as exc:
            failures.append((entry.n, "oracle failure: %s" % exc))
            continue
        dev = abs(located.mu - lam)
        worst = max(worst, dev)
        if dev > tol:
            failures.append((entry.n, "deviation %.3e > tol %.3e" % (dev, tol)))
    print("verified %d entries with the %s oracle; max deviation %.3e"
          % (len(ledger.entries), args.oracle, worst))
    if failures:
        for n, why in failures:
            print("entry %d FAILED: %s" % (n, why), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_report(args) -> int:
    ledger, _ = load_ledger_file(args.ledger)
    rows = ltreport.emit_cloud(ledger)
    os.makedirs(args.out_dir, exist_ok=True)

    cloud_path = os.path.join(args.out_dir, "eigencloud.csv")
    with open(cloud_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "q_num", "q_den", "m_n", "lambda_re", "lambda_im",
                         "dist_to_target", "capture_radius", "lt_partial_sum"])
        for row in rows:
            writer.writerow([row["n"], row["q_num"], row["q_den"], row["m"],
                             _fmt(row["lambda_re"]), _fmt(row["lambda_im"]),
                             _fmt(row["dist_to_target"]),
                             _fmt(row["capture_radius"]),
                             _fmt(row["lt_partial_sum"])])

    norms_path = os.path.join(args.out_dir, "norms.csv")
    with open(norms_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["N_prefix", "norm_p", "norm_inf", "budget", "margin"])
        for n_prefix in range(1, len(ledger.entries) + 1):
            prefix = ConstructionLedger(d=ledger.d, p=ledger.p,
                                        budget=ledger.budget,
                                        domain=ledger.domain, phi=ledger.phi,
                                        entries=ledger.entries[:n_prefix])
            report = ltreport.norm_budget_check(prefix)
            writer.writerow([n_prefix, _fmt(report.norm_p),
                             _fmt(report.norm_inf), _fmt(report.budget),
                             _fmt(report.margin)])
    print("wrote %s and %s" % (cloud_path, norms_path))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _positive(value: str) -> float:
    x = float(value)
    if not (x > 0.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenbump",
        description="Complex bump potentials with prescribed non-real "
                    "eigenvalues, with oracle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bump = sub.add_parser("bump", help="design a single bump")
    p_bump.add_argument("--dim", type=int, required=True)
    p_bump.add_argument("--p", type=_positive, required=True)
    p_bump.add_argument("--lambda", dest="lam", type=float, required=True)
    p_bump.add_argument("--eps", type=_positive, required=True)
    p_bump.add_argument("--delta", type=_positive, required=True)
    p_bump.add_argument("--r", type=_positive, required=True)
    p_bump.add_argument("--m-cap", type=int, default=10 ** 18)
    p_bump.add_argument("--out", default=None)
    p_bump.set_defaults(func=cmd_bump)

    p_con = sub.add_parser("construct", help="run the inductive construction")
    p_con.add_argument("--dim", type=int, required=True)
    p_con.add_argument("--p", type=_positive, required=True)
    p_con.add_argument("--budget", type=_positive, required=True)
    p_con.add_argument("--steps", type=int, required=True)
    p_con.add_argument("--domain", choices=("whole", "robin"), default="whole")
    p_con.add_argument("--phi", type=float, default=None)
    p_con.add_argument("--targets", default=None,
                       help="optional explicit targets 'q[:m],q[:m],...'")
    p_con.add_argument("--m-cap", type=int, default=10 ** 18)
    p_con.add_argument("--out", required=True)
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-verify a ledger file")
    p_ver.add_argument("--ledger", required=True)
    p_ver.add_argument("--oracle", choices=("transfer", "grid"),
                       default="transfer")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report", help="export CSV tables from a ledger")
    p_rep.add_argument("--ledger", required=True)
    p_rep.add_argument("--out-dir", required=True)
    p_rep.set_defaults(func=cmd_report)
    return parser


def _validate(args) -> str | None:
    """The checks only the CLI can make; ``design_bump``, ``build`` and
    ``_parse_targets`` raise InvalidArgumentError for the rest, which
    ``main`` reports as a validation error."""
    if args.command in ("bump", "construct") and args.m_cap < 0:
        return "--m-cap must be >= 0, got %d" % args.m_cap
    if args.command == "construct":
        if args.domain == "robin" and args.phi is None:
            return "domain 'robin' requires --phi in [0, pi)"
        if args.domain != "robin" and args.phi is not None:
            return "--phi only applies to the robin domain"
    return None


def main(argv=None) -> int:
    level = os.environ.get("EIGENBUMP_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print("error: EIGENBUMP_LOG must name a logging level, got %r" % level,
              file=sys.stderr)
        return EXIT_VALIDATION
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        print("error: %s" % problem, file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except (EigenbumpError, OSError) as exc:
        # OSError: an --out or --out-dir path the system refuses
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
