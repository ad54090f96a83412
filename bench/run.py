#!/usr/bin/env python3
"""Benchmark: time from `eigenbump construct` to a verified ledger.

    python3 bench/run.py --workload desk-whole --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client: each CLI call (``eigenbump.cli.main``,
in-process) starts only when the previous one has finished and its output
has been checked (a closed loop).  A *round* is one pass over the
workload's calls; rounds repeat for about ``--seconds`` (at least two, so
every configuration is constructed twice and the two ledgers can be
compared).  Every timing is the median over the rounds of one run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints per-layer metrics measured from
spans recorded around the calls that cross module boundaries.  The spans
stay in memory and are written once, at the end, to
``.bench_work/<workload>-seed<seed>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the provenance record (versions, thread settings, commit, seed,
targets, repeat counts).  Workload rationale, reference ``m_index``
values and known defects live in ``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import logging
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

# one worker thread: pin the BLAS/OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_ROUNDS = 2

# construct arguments (without --targets/--out) per configuration
CONFIGS = {
    "desk-whole": ["--dim", "1", "--p", "1.5", "--budget", "1", "--steps", "5"],
    "grid-whole": ["--dim", "1", "--p", "3", "--budget", "8", "--steps", "1"],
    "grid-robin": ["--dim", "1", "--p", "3", "--budget", "8", "--steps", "1",
                   "--domain", "robin", "--phi", "0"],
    "desk-d2": ["--dim", "2", "--p", "3", "--budget", "1", "--steps", "3"],
}

# workload -> ((configuration, follow-up calls on its ledger), ...)
WORKLOADS = {
    "desk-whole": (("desk-whole", ("verify_transfer", "report")),),
    "grid-certify": (
        ("grid-whole", ("verify_transfer", "verify_grid", "report")),
        ("grid-robin", ("verify_transfer", "verify_grid", "report")),
    ),
    # the CLI verifies and reports d = 1 ledgers only
    "desk-d2": (("desk-d2", ()),),
}

OPS = ("construct", "verify_transfer", "verify_grid", "report")


# ---------------------------------------------------------------------------
# inputs

def steps_of(config: str) -> int:
    return int(CONFIGS[config][CONFIGS[config].index("--steps") + 1])


def seed_offset(seed: int, scales: dict) -> int:
    """Seed 0 keeps the enumeration's targets; others scale them slightly,
    which changes every bump index but not the work a step does."""
    return scales["offsets"][seed % len(scales["offsets"])]


def targets_for(config: str, seed: int, scales: dict, enumerate_targets) -> str:
    """Explicit --targets list: the enumeration's first targets, scaled."""
    den = scales["denominator"]
    scale = Fraction(den + seed_offset(seed, scales), den)
    parts = []
    for n in range(1, steps_of(config) + 1):
        target = enumerate_targets(n)
        parts.append("%s:%d" % (target.q * scale, target.m))
    return ",".join(parts)


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans (name, start, end, parent, run id) kept in memory.

    A span is a list [id, name, start, end, parent, run_id, attrs]; spans
    nest because the benchmark runs one call at a time on one thread.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent,
                self.run_id, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        return traced


def _lane(span, args, kwargs, result):
    # the transfer solver returns k as mpmath.mpc in the mp lane
    span[1] += ".native" if isinstance(result[0], complex) else ".mp"


def _gamma(span, args, kwargs, result):
    span[6] = {"certified": not result.warning}


def _points(span, args, kwargs, result):
    span[6] = {"points": int(kwargs["n"] if "n" in kwargs else args[4])}


def _boundary_calls(eb):
    """(module, attribute, span name, annotate) for every wrapped call."""
    return (
        (eb.cli, "dump_ledger", "cli.ledger_io", None),
        (eb.cli, "load_ledger_file", "cli.ledger_io", None),
        (eb.construct, "build", "construct.build", None),
        (eb.construct, "choose_shift", "construct.choose_shift", None),
        (eb.construct, "estimate_gamma", "construct.estimate_gamma", _gamma),
        (eb.bump, "design_bump", "bump.design_bump", None),
        (eb.bump, "solve_eta", "bump.solve_eta", None),
        (eb.bump, "boundary_wavenumber", "bump.boundary_wavenumber", None),
        (eb.specfun, "bessel_j_ratio", "specfun.bessel_j_ratio", None),
        (eb.specfun, "bessel_ratio_mp", "specfun.bessel_ratio_mp", None),
        (eb.eigensolve, "_transfer_newton", "eigensolve.transfer_newton", _lane),
        (eb.eigensolve, "polish_root_mp", "eigensolve.polish_root_mp", None),
        (eb.eigensolve, "grid_oracle_1d", "eigensolve.grid_oracle_1d", None),
        (eb.eigensolve, "grid_sigma_min", "eigensolve.grid_sigma_min", _points),
        (eb.ltreport, "emit_cloud", "ltreport.emit_cloud", None),
        (eb.ltreport, "norm_budget_check", "ltreport.norm_budget_check", None),
    )


@contextlib.contextmanager
def instrumented(eb, tracer: Tracer | None):
    """Replace each boundary function by a traced wrapper, then restore.

    The package calls across modules through module attributes (and within
    a module through its globals), so replacing the attribute reaches
    every caller.
    """
    if tracer is None:
        yield
        return
    saved = []
    try:
        for module, attr, name, annotate in _boundary_calls(eb):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, annotate))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list, ledgers: list) -> dict:
    """Per-layer counts and times of one traced round."""
    child_time: dict = {}
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    attrs_sum: dict = {}
    for span in spans:
        name = span[1]
        dur = span[3] - span[2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child_time.get(span[0], 0.0)
        if span[6]:
            for key, value in span[6].items():
                attrs_sum[(name, key)] = attrs_sum.get((name, key), 0) + int(value)

    def ratio(num, den):
        return num / den if den else 0.0

    shift_ids = {s[0] for s in spans if s[1] == "construct.choose_shift"}
    transfers_in_shift = sum(1 for s in spans
                             if s[4] in shift_ids
                             and s[1].startswith("eigensolve.transfer_newton"))
    entries = [e for doc in ledgers for e in doc["entries"]]
    certified = sum(1 for e in entries if not e["gamma_warning"])
    gamma_calls = calls.get("construct.estimate_gamma", 0)
    gamma_certified = attrs_sum.get(("construct.estimate_gamma", "certified"), 0)
    cli_ops = ["cli." + op for op in OPS]

    out = {}
    for name in ("specfun.bessel_j_ratio", "specfun.bessel_ratio_mp",
                 "bump.design_bump", "bump.solve_eta",
                 "eigensolve.transfer_newton.native", "eigensolve.transfer_newton.mp",
                 "eigensolve.polish_root_mp", "eigensolve.grid_sigma_min",
                 "eigensolve.grid_oracle_1d", "construct.choose_shift",
                 "construct.estimate_gamma", "ltreport.norm_budget_check"):
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = total.get(name, 0.0)
    out["bump.design_bump.self_s"] = own.get("bump.design_bump", 0.0)
    out["bump.boundary_wavenumber.s"] = total.get("bump.boundary_wavenumber", 0.0)
    out["bump.candidates_per_design"] = ratio(calls.get("bump.solve_eta", 0),
                                              calls.get("bump.design_bump", 0))
    out["eigensolve.grid_sigma_min.points"] = attrs_sum.get(
        ("eigensolve.grid_sigma_min", "points"), 0)
    out["construct.transfer_per_shift"] = ratio(
        transfers_in_shift, calls.get("construct.choose_shift", 0))
    out["construct.estimate_gamma.self_s"] = own.get("construct.estimate_gamma", 0.0)
    out["construct.gamma_certified"] = gamma_certified
    out["construct.gamma_fallback"] = gamma_calls - gamma_certified
    out["construct.certified_share"] = ratio(certified, len(entries))
    out["ltreport.emit_cloud.s"] = total.get("ltreport.emit_cloud", 0.0)
    out["cli.ledger_io.s"] = total.get("cli.ledger_io", 0.0)
    out["cli.self_s"] = sum(own.get(name, 0.0) for name in cli_ops)
    for name in cli_ops:
        out[name + ".s"] = total.get(name, 0.0)
    return out


# ---------------------------------------------------------------------------
# operations and their output checks

class Op:
    """One CLI call: what ran, how long it took, and what its checks found."""

    def __init__(self, config: str, op: str):
        self.config = config
        self.op = op
        self.seconds = 0.0
        self.problems: list = []
        self.known = None  # the known-defect record this outcome matches

    @property
    def passed(self) -> bool:
        return not self.problems


def call_cli(eb, argv: list, tracer: Tracer | None, op: str):
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli." + op) if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = eb.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any crash is this call's failure, not the run's
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    return code, elapsed, out.getvalue(), err.getvalue()


def _without_created(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "created"}


def check_ledger(doc: dict, config: str, seed: int, reference: dict) -> list:
    problems = []
    steps = steps_of(config)
    entries = doc["entries"]
    if doc.get("failed_at") is not None or len(entries) != steps:
        problems.append("partial ledger: %d of %d entries, failed_at %s"
                        % (len(entries), steps, doc.get("failed_at")))
    if doc["config"]["dim"] == 1:
        for e in entries:
            lam = complex(*e["lambda"]) if e["lambda"] is not None else None
            q = Fraction(e["q"][0], e["q"][1])
            if not e["verified"] or lam is None:
                problems.append("entry %d not verified" % e["n"])
            elif not (abs(lam - float(q)) < 1.0 / e["m"] and lam.imag < 0.0):
                problems.append("entry %d: lambda %r outside B(%s, 1/%d) or Im >= 0"
                                % (e["n"], lam, q, e["m"]))
    want = reference["m_index"][config][str(seed_offset(seed, reference["seed_scales"]))]
    got = [e["bump"]["m_index"] for e in entries]
    if got != want:
        problems.append("m_index %s != reference %s" % (got, want))
    certified = sum(1 for e in entries if not e["gamma_warning"])
    floor = reference["certified_min"][config]
    if certified < floor:
        problems.append("%d certified gamma entries, reference has %d"
                        % (certified, floor))
    return problems


def check_report(out_dir: Path, n_entries: int) -> list:
    problems = []
    with open(out_dir / "eigencloud.csv", newline="", encoding="utf-8") as handle:
        cloud = list(csv.DictReader(handle))
    if len(cloud) != n_entries:
        problems.append("eigencloud.csv has %d rows for %d entries"
                        % (len(cloud), n_entries))
    with open(out_dir / "norms.csv", newline="", encoding="utf-8") as handle:
        norms = list(csv.DictReader(handle))
    if len(norms) != n_entries or not all(float(r["margin"]) > 0.0 for r in norms):
        problems.append("norms.csv margins not all > 0: %s"
                        % [r["margin"] for r in norms])
    return problems


def _known_defect(reference: dict, config: str, op: str, code, err: str):
    for known in reference["known_failures"]:
        if (known["config"] == config and known["op"] == op
                and code == known["exit"] and known["stderr_contains"] in err):
            return known
    return None


class Session:
    """State shared by the rounds of one run."""

    def __init__(self, eb, workload: str, seed: int, workdir: Path,
                 reference: dict):
        self.eb = eb
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.targets = {
            config: targets_for(config, seed, reference["seed_scales"],
                                eb.construct.enumerate_targets)
            for config, _ in WORKLOADS[workload]}
        self.first_docs: dict = {}

    def run_round(self, index: int, tracer: Tracer | None = None):
        """All calls of one round; returns (ops, ledger documents)."""
        ops, docs = [], []
        with instrumented(self.eb, tracer):
            for config, follow_ups in WORKLOADS[self.workload]:
                ledger = self.workdir / ("%s-%d.json" % (config, index))
                op = Op(config, "construct")
                argv = (["construct"] + CONFIGS[config]
                        + ["--targets", self.targets[config], "--out", str(ledger)])
                code, op.seconds, _, err = call_cli(self.eb, argv, tracer, "construct")
                doc = None
                if code != 0:
                    op.problems.append("construct exited %s: %s" % (code, err.strip()[-500:]))
                else:
                    doc = self._check_construct(op, config, ledger)
                if doc is not None:
                    docs.append(doc)
                ops.append(op)
                for name in follow_ups:
                    ops.append(self._follow_up(config, name, ledger, doc, index, tracer))
        return ops, docs

    def _check_construct(self, op: Op, config: str, ledger: Path):
        """The written ledger if it is well formed, recording what is wrong."""
        try:
            doc = json.loads(ledger.read_text(encoding="utf-8"))
            op.problems += check_ledger(doc, config, self.seed, self.reference)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            op.problems.append("unreadable ledger: %r" % exc)
            return None
        first = self.first_docs.setdefault(config, _without_created(doc))
        if _without_created(doc) != first:
            op.problems.append("ledger differs from the first construct "
                               "of this configuration")
        return doc

    def _follow_up(self, config, name, ledger, doc, index, tracer) -> Op:
        op = Op(config, name)
        if doc is None:
            op.problems.append("no ledger to %s" % name)
            return op
        if name == "report":
            out_dir = self.workdir / ("%s-%d-report" % (config, index))
            argv = ["report", "--ledger", str(ledger), "--out-dir", str(out_dir)]
        else:
            argv = ["verify", "--ledger", str(ledger),
                    "--oracle", name.split("_", 1)[1]]
        code, op.seconds, out, err = call_cli(self.eb, argv, tracer, name)
        if code != 0:
            op.problems.append("%s exited %s: %s" % (name, code, err.strip()[-500:]))
            op.known = _known_defect(self.reference, config, name, code, err)
        elif name == "report":
            op.problems += check_report(out_dir, len(doc["entries"]))
        elif not out.startswith("verified %d entries" % len(doc["entries"])):
            op.problems.append("unexpected verify output: %r" % out)
        return op


# ---------------------------------------------------------------------------
# run

def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing eigenbump.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import eigenbump.cli"]
    # the first import also writes the bytecode cache, which users pay once;
    # no timeout, because waiting with one polls the child in 50 ms steps
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, session: Session, rounds: int, traced: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "targets": session.targets,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds_untraced": rounds,
        "rounds_traced": traced,
        "setup_repeats": SETUP_REPEATS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def load_package():
    """Import eigenbump from this checkout's src/, never from elsewhere."""
    if not (SRC / "eigenbump" / "cli.py").is_file():
        raise FileNotFoundError("no eigenbump sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import eigenbump
    from eigenbump import bump, cli, construct, eigensolve, ltreport, specfun
    if Path(eigenbump.__file__).resolve().parent != (SRC / "eigenbump").resolve():
        raise ImportError("eigenbump imported from %s, not %s" % (eigenbump.__file__, SRC))
    return argparse.Namespace(bump=bump, cli=cli, construct=construct,
                              eigensolve=eigensolve, ltreport=ltreport, specfun=specfun)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_rounds(session: Session, seconds: int, trace: bool, run_id: str):
    """Closed loop of rounds; with tracing, every second round is traced.

    Returns the untraced and the traced rounds as (ops, docs, spans).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    walls = []
    # a round starts only if, at the typical round length so far, it ends
    # less than half a round past the deadline; runs then last ~seconds
    while (len(walls) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(walls) / 2 < seconds):
        index = len(walls)
        tracer = Tracer("%s-round%d" % (run_id, index)) if trace and index % 2 else None
        round_start = time.perf_counter()
        ops, docs = session.run_round(index, tracer)
        walls.append(time.perf_counter() - round_start)
        if tracer is None:
            untraced.append((ops, docs, None))
        else:
            traced.append((ops, docs, tracer.spans))
    return untraced, traced


def round_seconds(rounds: list, op_names) -> list:
    return [sum(op.seconds for op in ops if op.op in op_names) for ops, _, _ in rounds]


def traced_metrics(untraced: list, traced: list) -> tuple[dict, list]:
    """Per-layer metrics: medians of times over the traced rounds, and
    counts, which must repeat exactly from one traced round to the next."""
    per_round = [layer_metrics(spans, docs) for _, docs, spans in traced]
    metrics, problems = {}, []
    for key in per_round[0]:
        values = [r[key] for r in per_round]
        if _unit(key) == "s":
            metrics[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append("%s differs across traced rounds: %s" % (key, values))
            metrics[key] = values[0]
    metrics["trace.overhead_s"] = (
        statistics.median(round_seconds(traced, ("construct",)))
        - statistics.median(round_seconds(untraced, ("construct",))))
    return metrics, problems


def write_spans(path: Path, traced: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for _, _, spans in traced:
            for sid, name, start, end, parent, run_id, attrs in spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run_id": run_id, "attrs": attrs}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        eb = load_package()
    except (OSError, ImportError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    setup_s = measure_setup()
    WORK.mkdir(exist_ok=True)
    run_id = "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid())
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        session = Session(eb, args.workload, args.seed, Path(tmp), reference)
        untraced, traced = run_rounds(session, args.seconds, bool(args.trace), run_id)

    all_ops = [op for ops, _, _ in untraced + traced for op in ops]
    problems = ["%s %s: %s" % (op.config, op.op, "; ".join(op.problems))
                for op in all_ops if not op.passed and op.known is None]
    if args.trace:
        metrics, count_problems = traced_metrics(untraced, traced)
        if count_problems:
            problems.append("traced counts: " + "; ".join(count_problems))
        write_spans(WORK / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed)), traced)
    else:
        metrics = {
            "ledger_s": statistics.median(round_seconds(untraced, OPS)),
            "construct_s": statistics.median(round_seconds(untraced, ("construct",))),
            "setup_s": setup_s,
            "pass_share": sum(op.passed for op in all_ops) / len(all_ops),
        }

    for defect in reference["known_failures"]:
        hits = sum(1 for op in all_ops if op.known is defect)
        if hits:
            print("known defect, %d of %d calls: %s %s: %s" % (
                hits, len(all_ops), defect["config"], defect["op"], defect["reason"]))
    for problem in problems:
        print("FAILED %s" % problem, file=sys.stderr)
    for name in OPS[1:]:
        samples = [s for s in round_seconds(untraced, (name,)) if s > 0.0]
        if samples:
            print("%-40s %.6g s (untraced, median per round)"
                  % (name + "_s", statistics.median(samples)))
    for key, value in metrics.items():
        print("%-40s %.6g %s" % (key, value, _unit(key)))
    record = provenance(args, session, len(untraced), len(traced))
    record["round_seconds"] = {"construct": round_seconds(untraced, ("construct",)),
                               "all_calls": round_seconds(untraced, OPS)}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": len(problems),
        "metrics": {key: {"value": value, "unit": _unit(key)}
                    for key, value in metrics.items()},
    }))
    return 0


def _unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("_share", "_per_design", "_per_shift")):
        return "ratio"
    if key.endswith(".points"):
        return "points"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
