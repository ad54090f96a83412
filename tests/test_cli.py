"""CLI: validation, exit codes, ledger round trips, CSV export."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from eigenbump import cli, construct


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def ledger_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledgers") / "run.json"
    code = run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                "--steps", "2", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def partial_ledger_file(tmp_path_factory):
    # step 1 is feasible at index 3, step 2 needs a larger index: the run
    # stops at step 2 and leaves entry 1 without a located lambda
    path = tmp_path_factory.mktemp("ledgers") / "partial.json"
    code = run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                "--steps", "2", "--m-cap", "3", "--out", str(path)])
    assert code == 3
    doc = json.loads(path.read_text())
    assert doc["failed_at"] == 2 and doc["entries"][0]["lambda"] is None
    return str(path)


class TestBumpCommand:
    def test_happy_path_prints_json(self, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"][1] < 0.0
        assert payload["secular_residual"] <= 1e-10
        assert payload["norm_p"] < 0.5 and payload["norm_inf"] < 0.5

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "bump.json"
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "2", "--delta", "2", "--r", "0.3",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["mu"][1] < 0.0

    def test_refused_out_path_is_validation_error(self, tmp_path, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "2", "--delta", "2", "--r", "0.3",
                    "--out", str(tmp_path / "missing" / "bump.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_p_not_above_d_rejected(self, capsys):
        code = run(["bump", "--dim", "3", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1"])
        assert code == 2
        assert "p > d" in capsys.readouterr().err

    def test_nonpositive_lambda_rejected(self, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "0",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1"])
        assert code == 2
        assert "(0, inf)" in capsys.readouterr().err

    def test_infeasible_cap_is_validation_error(self, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1",
                    "--m-cap", "3"])
        capsys.readouterr()
        assert code == 2

    def test_cap_beyond_double_range_stops_gallop(self, capsys):
        # radius_for_index is inf from m ~ 1e308 on and eta nan with it: the
        # gallop stops at the last index whose bump the doubles still hold
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "1e-300", "--delta", "1e-300", "--r", "1e-300",
                    "--m-cap", str(10 ** 400)])
        assert code == 2
        assert "no bump index up to 2247116418577894884" in capsys.readouterr().err

    def test_negative_cap_rejected(self, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1",
                    "--m-cap", "-1"])
        assert code == 2
        assert "--m-cap must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--dim", "1", "--p", "200", "--lambda", "100", "--eps", "1",
         "--delta", "1000", "--r", "1000"],
        ["--dim", "200", "--p", "300", "--lambda", "1", "--eps", "1",
         "--delta", "1", "--r", "1"],
    ])
    def test_norms_past_double_range(self, argv, capsys):
        # |c|^p or a^d leaves the double range; the L^p norm does not
        code = run(["bump", *argv])
        assert code == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["norm_p"] < 1.0

    def test_unknown_log_level_is_validation_error(self, monkeypatch, capsys):
        # logging's own "Unknown level" ValueError would be a traceback
        monkeypatch.setenv("EIGENBUMP_LOG", "verbose")
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1"])
        assert code == 2
        assert "error: EIGENBUMP_LOG must name a logging level" in capsys.readouterr().err


class TestConstructCommand:
    def test_zero_steps_empty_ledger(self, tmp_path, capsys):
        out = tmp_path / "empty.json"
        code = run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                    "--steps", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["entries"] == [] and doc["failed_at"] is None

    def test_refused_out_path_is_validation_error(self, tmp_path, monkeypatch,
                                                  capsys):
        # the path is checked before step 1: no build runs
        def refuse(*args, **kwargs):
            raise AssertionError("construct.build ran before --out was checked")
        monkeypatch.setattr(construct, "build", refuse)
        code = run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                    "--steps", "1", "--out", str(tmp_path / "missing" / "l.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_build_leaves_existing_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "kept.json"
        out.write_text("earlier ledger\n")
        code = run(["construct", "--dim", "1", "--budget", "8", "--p", "1",
                    "--steps", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")
        assert out.read_text() == "earlier ledger\n"

    def test_negative_cap_rejected(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = run(["construct", "--dim", "1", "--p", "2", "--budget", "8",
                    "--steps", "2", "--m-cap", "-1", "--out", str(out)])
        assert code == 2
        assert "--m-cap must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--p", "1", "--steps", "2"],
                                       ["--p", "0.5", "--steps", "2"],
                                       ["--p", "3", "--steps", "-1"]])
    def test_build_preconditions_are_validation_errors(self, extra, tmp_path,
                                                       capsys):
        # checked by build itself, before any step runs
        out = tmp_path / "never.json"
        code = run(["construct", "--dim", "1", "--budget", "8", *extra,
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_robin_requires_phi(self, capsys):
        code = run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                    "--steps", "1", "--domain", "robin", "--out", "x.json"])
        assert code == 2
        assert "phi" in capsys.readouterr().err

    def test_phi_range_checked(self, capsys):
        code = run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                    "--steps", "1", "--domain", "robin", "--phi", "3.5",
                    "--out", "x.json"])
        assert code == 2
        capsys.readouterr()

    def test_phi_outside_robin_rejected(self, capsys):
        code = run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                    "--steps", "1", "--phi", "0.5", "--out", "x.json"])
        assert code == 2
        capsys.readouterr()

    def test_robin_needs_dim_one(self, capsys):
        code = run(["construct", "--dim", "2", "--p", "3", "--budget", "1",
                    "--steps", "1", "--domain", "robin", "--phi", "1.0",
                    "--out", "x.json"])
        assert code == 2
        capsys.readouterr()

    def test_explicit_targets(self, tmp_path, capsys):
        out = tmp_path / "targets.json"
        code = run(["construct", "--dim", "1", "--p", "2", "--budget", "8",
                    "--steps", "2", "--targets", "1,3:1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert [e["q"] for e in doc["entries"]] == [[1, 1], [3, 1]]

    @pytest.mark.parametrize("spec", ["1:x", "1:2:3", "abc", "1:", "1/0"])
    def test_malformed_targets_rejected(self, spec, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                    "--steps", "1", "--targets", spec, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "malformed --targets entry" in err
        assert not out.exists()

    def test_partial_construction_exit_three(self, tmp_path, capsys):
        # an absurd index cap makes the first design infeasible; the partial
        # ledger must still land on disk with failed_at set
        out = tmp_path / "partial.json"
        code = run(["construct", "--dim", "1", "--p", "2", "--budget", "8",
                    "--steps", "2", "--m-cap", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["failed_at"] == 1 and doc["entries"] == []


def make_grid_singular(monkeypatch):
    """Every tridiagonal factorisation from now on reports a zero pivot."""
    import scipy.linalg.lapack
    original = scipy.linalg.lapack.zgttrf

    def zgttrf(*args, **kwargs):
        *factors, _ = original(*args, **kwargs)
        return (*factors, 1)
    monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", zgttrf)


class TestSingularGridShift:
    def test_construct_falls_back(self, tmp_path, monkeypatch, caplog, capsys):
        path = tmp_path / "singular.json"
        make_grid_singular(monkeypatch)
        with caplog.at_level("INFO", logger="eigenbump.construct"):
            code = run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                        "--steps", "1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        entry = json.loads(path.read_text())["entries"][0]
        assert entry["gamma_warning"]
        assert ("gamma step: H - z is singular on the grid (info 1); "
                "using fallback" in caplog.messages)

    def test_grid_verify_names_entry(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "one.json"
        assert run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                    "--steps", "1", "--out", str(path)]) == 0
        make_grid_singular(monkeypatch)
        code = run(["verify", "--ledger", str(path), "--oracle", "grid"])
        err = capsys.readouterr().err
        assert code == 4
        assert ("entry 1 FAILED: oracle failure: H - z is singular on the "
                "grid (info 1)" in err)


class TestVerifyCommand:
    def test_transfer_pass(self, ledger_file, capsys):
        code = run(["verify", "--ledger", ledger_file, "--oracle", "transfer"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max deviation" in out

    def test_grid_pass_single_step(self, tmp_path, capsys):
        # moderate single-entry ledger: the grid window is affordable
        path = tmp_path / "one.json"
        assert run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                    "--steps", "1", "--out", str(path)]) == 0
        code = run(["verify", "--ledger", str(path), "--oracle", "grid"])
        capsys.readouterr()
        assert code == 0

    def test_grid_pass_robin_window_keeps_wall(self, tmp_path, capsys):
        # the eigenfunction tail of the phi = 0 entry reaches the wall, so
        # the grid window must keep the Robin boundary
        path = tmp_path / "robin.json"
        assert run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                    "--steps", "1", "--domain", "robin", "--phi", "0",
                    "--out", str(path)]) == 0
        code = run(["verify", "--ledger", str(path), "--oracle", "grid"])
        capsys.readouterr()
        assert code == 0

    def test_grid_multiscale_reports_honestly(self, ledger_file, capsys):
        # entry 2 of the cascade ledger has a radius no grid can afford;
        # the verifier must name it rather than claim success
        code = run(["verify", "--ledger", ledger_file, "--oracle", "grid"])
        err = capsys.readouterr().err
        assert code == 4
        assert "entry 2" in err and "entry 1" not in err

    def test_corrupted_entry_named(self, ledger_file, tmp_path, capsys):
        doc = json.loads(Path(ledger_file).read_text())
        doc["entries"][1]["lambda"][0] += 1e-2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["verify", "--ledger", str(bad), "--oracle", "transfer"])
        err = capsys.readouterr().err
        assert code == 4
        assert "entry 2" in err

    def test_partial_ledger_refused(self, partial_ledger_file, capsys):
        code = run(["verify", "--ledger", partial_ledger_file])
        err = capsys.readouterr().err
        assert code == 2
        assert "ledger is partial (failed at step 2)" in err

    def test_tol_is_not_an_option(self, ledger_file, capsys):
        # the acceptance tolerance is fixed (cli.VERIFY_TOL)
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--ledger", ledger_file, "--tol", "1"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = run(["verify", "--ledger", "/nonexistent/l.json"])
        assert code == 2
        capsys.readouterr()

    def test_schema_mismatch(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"version": 1, "entries": "nope"}')
        code = run(["verify", "--ledger", str(bad)])
        assert code == 2
        capsys.readouterr()

    def test_empty_ledger_vacuous(self, tmp_path, capsys):
        out = tmp_path / "empty.json"
        run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
             "--steps", "0", "--out", str(out)])
        code = run(["verify", "--ledger", str(out)])
        capsys.readouterr()
        assert code == 0


class TestReportCommand:
    def test_csv_outputs(self, ledger_file, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = run(["report", "--ledger", ledger_file, "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        cloud = (out_dir / "eigencloud.csv").read_text().strip().splitlines()
        norms = (out_dir / "norms.csv").read_text().strip().splitlines()
        assert len(cloud) == 3  # header + 2 entries
        assert cloud[0].split(",") == ["n", "q_num", "q_den", "m_n",
                                       "lambda_re", "lambda_im",
                                       "dist_to_target", "capture_radius",
                                       "lt_partial_sum"]
        assert len(norms) == 3
        sums = [float(line.split(",")[-1]) for line in cloud[1:]]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        for line in norms[1:]:
            fields = line.split(",")
            assert float(fields[-1]) > 0.0  # positive margin

    def test_partial_ledger_refused_without_reason(self, partial_ledger_file,
                                                   tmp_path, capsys):
        # ledger files do not store the failure reason, so none is printed
        code = run(["report", "--ledger", partial_ledger_file,
                    "--out-dir", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: ledger is partial (failed at step 2)\n"

    def test_out_dir_naming_a_file_is_validation_error(self, ledger_file,
                                                       capsys):
        code = run(["report", "--ledger", ledger_file, "--out-dir", ledger_file])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_large_p_norms_hold_to_50_digits(self, tmp_path, capsys):
        # each bump's L^300 norm was once a double underflow that passed
        # any budget, and the report read 0
        path = tmp_path / "p300.json"
        assert run(["construct", "--dim", "1", "--p", "300", "--budget", "0.05",
                    "--steps", "2", "--out", str(path)]) == 0
        for entry in json.loads(path.read_text())["entries"]:
            bump = entry["bump"]
            with mpmath.workdps(50):
                c_abs = abs(mpmath.mpc(*bump["c"]))
                norm = (2 * mpmath.mpf(bump["a"]) * c_abs ** 300) ** (mpmath.mpf(1) / 300)
                assert norm < entry["eps"]
        assert run(["report", "--ledger", str(path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "norms.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(float(row["norm_p"]) > 0.0 for row in rows)

    def test_seventeen_digit_formatting(self, ledger_file, tmp_path, capsys):
        out_dir = tmp_path / "fmt"
        run(["report", "--ledger", ledger_file, "--out-dir", str(out_dir)])
        capsys.readouterr()
        row = (out_dir / "eigencloud.csv").read_text().splitlines()[1]
        lam_re = row.split(",")[4]
        doc = json.loads(Path(ledger_file).read_text())
        assert float(lam_re) == doc["entries"][0]["lambda"][0]


def _not_json(doc):
    return "{ not json"


def _set_bump_a(doc):
    doc["entries"][0]["bump"]["a"] = "abc"
    return json.dumps(doc)


def _set_zero_denominator(doc):
    doc["entries"][0]["q"] = [1, 0]
    return json.dumps(doc)


def _set_version(doc):
    doc["version"] = 7
    return json.dumps(doc)


def _set_phi(doc):
    doc["config"]["phi"] = "abc"
    return json.dumps(doc)


def _drop_lambda(doc):
    # a complete ledger (failed_at null) must carry a lambda on every entry
    doc["entries"][0]["lambda"] = None
    return json.dumps(doc)


def _zero_bump_a(doc):
    doc["entries"][0]["bump"]["a"] = 0.0
    return json.dumps(doc)


def _nan_t(doc):
    doc["entries"][0]["t"] = math.nan
    return json.dumps(doc)


def _inf_k(doc):
    doc["entries"][0]["bump"]["k"] = [math.inf, 1.0]
    return json.dumps(doc)


def _set(name, *path_value):
    """The corruption ``name``: doc[path...] = value for each (*path, value)."""
    def corrupt(doc):
        for *path, value in path_value:
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        return json.dumps(doc)
    corrupt.__name__ = name
    return corrupt


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("corrupt", [
    _not_json, _set_bump_a, _set_zero_denominator, _set_version, _set_phi,
    _drop_lambda, _zero_bump_a, _nan_t, _inf_k,
    # integers are JSON integers, and phi fits the domain
    _set("_float_dim", ("config", "dim", 1.5)),
    _set("_bool_dim", ("config", "dim", True)),
    _set("_float_q", ("entries", 0, "q", [1.5, 1])),
    _set("_string_n", ("entries", 0, "n", "1")),
    _set("_string_failed_at", ("failed_at", "x")),
    _set("_unknown_domain", ("config", "domain", "banana")),
    _set("_robin_null_phi", ("config", "domain", "robin"), ("config", "phi", None)),
    _set("_whole_with_phi", ("config", "phi", 0.5)),
    _set("_robin_phi_beyond_pi", ("config", "domain", "robin"), ("config", "phi", 4.0))])
def test_bad_ledger_file_is_validation_error(command, corrupt, ledger_file,
                                             tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(corrupt(json.loads(Path(ledger_file).read_text())))
    argv = [command, "--ledger", str(bad)]
    if command == "report":
        argv += ["--out-dir", str(tmp_path / "rep")]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("corrupt", [
    # numbers are JSON numbers and flags JSON booleans: float() read the
    # first two as 8.0 and 1.0, bool() the third as True
    _set("_string_budget", ("config", "budget", "8")),
    _set("_bool_t", ("entries", 0, "t", True)),
    _set("_string_gamma_warning", ("entries", 0, "gamma_warning", "false")),
    _set("_bool_residual", ("entries", 0, "residual", False)),
    _set("_string_dist_lambda_mu", ("entries", 0, "dist_lambda_mu", "NaN")),
    _set("_string_k", ("entries", 0, "bump", "k", ["1", "0"])),
    _set("_int_verified", ("entries", 0, "verified", 1)),
    _set("_null_lambda_within_rho", ("entries", 0, "lambda_within_rho", None))])
def test_wrong_json_type_is_schema_mismatch(command, corrupt, ledger_file,
                                            tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(corrupt(json.loads(Path(ledger_file).read_text())))
    argv = [command, "--ledger", str(bad)]
    if command == "report":
        argv += ["--out-dir", str(tmp_path / "rep")]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ledger schema mismatch: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("corrupt", [_nan_t, _inf_k])
def test_non_finite_number_fails_grid_verify_cleanly(corrupt, ledger_file,
                                                     tmp_path, capsys):
    # partial ledgers write NaN only as an entry's residual and
    # dist_lambda_mu (see TestVerifyCommand::test_partial_ledger_refused)
    bad = tmp_path / "bad.json"
    bad.write_text(corrupt(json.loads(Path(ledger_file).read_text())))
    code = run(["verify", "--ledger", str(bad), "--oracle", "grid"])
    assert code == 2
    assert "non-finite number" in capsys.readouterr().err


def test_precision_is_set_by_the_lane_alone(tmp_path, monkeypatch, capsys):
    # no process-global precision at all: a seed-0 desk-whole build and its
    # transfer verify run every extended-precision kernel on ints, so
    # mpmath's working precision is neither entered nor set
    calls = []

    def record(name, real):
        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return spy
    for name in ("workdps", "workprec"):
        monkeypatch.setattr(mpmath, name, record(name, getattr(mpmath, name)))
    context = type(mpmath.mp)
    for name in ("prec", "dps"):
        prop = getattr(context, name)
        monkeypatch.setattr(context, name,
                            property(prop.fget, record("mp." + name, prop.fset)))
    mpmath.mp.dps = mpmath.mp.dps  # the spies see a setter call
    assert calls == ["mp.dps"]
    calls.clear()
    path = str(tmp_path / "desk.json")
    assert run(["construct", "--dim", "1", "--p", "1.5", "--budget", "1",
                "--steps", "5", "--out", path]) == 0
    assert run(["verify", "--ledger", path, "--oracle", "transfer"]) == 0
    capsys.readouterr()
    assert calls == []


class TestDeterminismAndRoundTrip:
    def test_round_trip_bytes(self, ledger_file):
        raw = Path(ledger_file).read_bytes()
        ledger, meta = cli.load_ledger_file(ledger_file)
        doc = cli.ledger_to_doc(ledger, meta["steps"], meta["created"])
        assert cli.dump_ledger(doc).encode() == raw

    def test_identical_configs_identical_ledgers(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = run(["construct", "--dim", "1", "--p", "3", "--budget", "8",
                        "--steps", "2", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("created")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def _numpy_or_scipy_after(code, cwd=None):
    """Top-level numpy and scipy modules loaded by a fresh interpreter that
    runs ``code`` with this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code += ("\nprint(sorted({m.split('.')[0] for m in sys.modules}"
             " & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], check=True, cwd=cwd,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_scipy():
    # numpy and scipy are imported where the grid needs them, not at start-up
    assert _numpy_or_scipy_after("import sys, eigenbump.cli") == "[]"


def test_desk_commands_load_neither_numpy_nor_scipy(tmp_path):
    # desk runs never grid: the stability radius falls back without one
    desk = ["--p", "1.5", "--budget", "1"]
    calls = [
        ["construct", "--dim", "2", "--p", "3", "--budget", "1", "--steps", "3",
         "--out", "d2.json"],
        ["construct", "--dim", "1", *desk, "--steps", "5", "--out", "whole.json"],
        ["verify", "--ledger", "whole.json", "--oracle", "transfer"],
        ["report", "--ledger", "whole.json", "--out-dir", "report"],
        ["construct", "--dim", "1", *desk, "--steps", "3", "--domain", "robin",
         "--phi", "0", "--out", "robin.json"],
    ]
    code = "import sys; from eigenbump import cli\n" + "".join(
        "assert cli.main(%r) == 0\n" % argv for argv in calls)
    assert _numpy_or_scipy_after(code, cwd=tmp_path) == "[]"


def test_grid_runs_do_not_load_arpack(tmp_path):
    # the grid oracle's inverse iteration settles on a 1-step whole-line
    # ledger, so a fresh run never imports scipy.sparse for ARPACK
    src = str(Path(cli.__file__).resolve().parents[1])
    ledger = str(tmp_path / "grid.json")
    code = ("import sys; from eigenbump import cli; "
            "assert cli.main(['construct', '--dim', '1', '--p', '3', '--budget', "
            "'8', '--steps', '1', '--out', %r]) == 0; "
            "assert cli.main(['verify', '--ledger', %r, '--oracle', 'grid']) == 0; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse')])"
            % (ledger, ledger))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"
