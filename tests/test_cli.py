"""CLI: validation, exit codes, ledger round trips, CSV export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eigenbump import cli


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

    def test_negative_cap_rejected(self, capsys):
        code = run(["bump", "--dim", "1", "--p", "2", "--lambda", "1",
                    "--eps", "0.5", "--delta", "0.5", "--r", "0.1",
                    "--m-cap", "-1"])
        assert code == 2
        assert "--m-cap must be >= 0" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("corrupt", [_not_json, _set_bump_a,
                                     _set_zero_denominator, _set_version,
                                     _set_phi, _drop_lambda, _zero_bump_a])
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


def test_import_does_not_load_scipy():
    # scipy is imported where the grid and eta need it, not at start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, eigenbump.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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
