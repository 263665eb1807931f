"""Tests for the command-line interface."""
import json

import pytest

from hypermorse import harness
from hypermorse.cli import main
from hypermorse.harness import eval_kernel


class TestEval:
    def test_hres_value(self, capsys):
        rc = main(["eval", "--kernel", "hres", "--k", "0.5", "--mu", "0,-0.9",
                   "--z", "0,1", "--zp", "0.5,2"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = dict(line.split(" = ") for line in out.strip().splitlines())
        direct = eval_kernel("hres", {"k": 0.5, "mu": -0.9j,
                                      "z": (0.0, 1.0), "zp": (0.5, 2.0)})
        assert float(lines["value_re"]) == complex(direct.value).real
        assert float(lines["value_im"]) == complex(direct.value).imag

    def test_mwave_k0(self, capsys):
        rc = main(["eval", "--kernel", "mwave", "--k", "0", "--lambda", "1.0",
                   "--X", "0", "--Xp", "0.3", "--b", "1.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value_re" in out

    def test_mheat_prints_bookkeeping(self, capsys):
        rc = main(["eval", "--kernel", "mheat", "--k", "0", "--lambda", "1.0",
                   "--X", "0", "--Xp", "0.4", "--t", "0.8"])
        assert rc == 0
        lines = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        direct = eval_kernel("mheat", {"k": 0.0, "lam": 1.0, "X": 0.0, "Xp": 0.4, "t": 0.8})
        assert int(lines["n_evals"]) == direct.n_evals > 0
        assert lines["converged"] == "True" and float(lines["err_estimate"]) >= 0

    def test_missing_argument_is_usage_error(self, capsys):
        rc = main(["eval", "--kernel", "hres", "--k", "0.5", "--z", "0,1",
                   "--zp", "0.5,2"])  # no --mu
        assert rc == 2
        err = capsys.readouterr().err
        assert "MissingParameter" in err and "needs mu" in err

    def test_malformed_pair_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--kernel", "hres", "--k", "0.5", "--mu", "0,-0.9",
                  "--z", "1,2,3", "--zp", "0.5,2"])
        assert exc.value.code == 2
        assert "expected 'a,b', got '1,2,3'" in capsys.readouterr().err

    def test_domain_error_is_usage_error(self, capsys):
        rc = main(["eval", "--kernel", "hres", "--k", "0.5", "--mu", "0,-0.9",
                   "--z", "0,1", "--zp", "0,1"])  # diagonal
        assert rc == 2


class TestVerify:
    def test_passing_suite(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "hyperbolic_forms", "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "hyperbolic_forms"
        assert doc["calibration"] is None
        assert doc["reports"][0]["passed"] is True
        assert "PASS hyperbolic_forms" in capsys.readouterr().out

    def test_failing_suite_exit_code(self, tmp_path, capsys):
        tols = tmp_path / "tols.json"
        tols.write_text(json.dumps({"hyperbolic_forms": 1e-20}))
        report = tmp_path / "report.json"
        rc = main(["verify", "--suite", "hyperbolic_forms",
                   "--tol-file", str(tols), "--report", str(report)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst point" in out

    def test_bad_tol_file(self, tmp_path):
        rc = main(["verify", "--suite", "hyperbolic_forms",
                   "--tol-file", str(tmp_path / "missing.json"),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("tols, named", [
        ({"hyperbolic_form": 1e-20}, "hyperbolic_form"),  # misspelt id
        ({"calibration": 1e-3}, "calibration"),  # the calibration takes no override
        ({"hyperbolic_forms": "1e-9"}, "hyperbolic_forms"),
        ({"hyperbolic_forms": 0}, "hyperbolic_forms"),
        ([1e-9], "identity ids"),
    ])
    def test_invalid_tol_file_is_usage_error(self, tmp_path, capsys, tols, named):
        path, report = tmp_path / "tols.json", tmp_path / "r.json"
        path.write_text(json.dumps(tols))
        rc = main(["verify", "--suite", "hyperbolic_forms", "--tol-file", str(path),
                   "--report", str(report)])
        assert rc == 2 and not report.exists()
        assert named in capsys.readouterr().err

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus", "--report", "/tmp/x.json"])
        assert exc.value.code == 2


class TestCalibrate:
    def test_writes_record(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc == json.loads(capsys.readouterr().out)  # the file holds the printed record
        assert doc["mapping_id"] == "C"
        assert doc["morse_wave_variant"] == "primary"
        assert doc["whittaker_index_convention"] == "order_imu"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "hyperbolic_forms", "--report"],
    ["calibrate", "--out"],
])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    # it printed a traceback and exited 1, the code of an identity failure
    path = tmp_path / "missing" / "out.json"
    assert main(argv + [str(path)]) == 2
    assert f"error: cannot write {path}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--report"],
    ["calibrate", "--out"],
])
def test_ambiguous_calibration_is_calibration_failure(tmp_path, capsys, monkeypatch, argv):
    # no candidate meets a zero tolerance: exit 3, and nothing is written
    monkeypatch.setitem(harness.TOLERANCES, "calibration", 0.0)
    path = tmp_path / "out.json"
    assert main(argv + [str(path)]) == 3
    assert "calibration failure: no spectral mapping candidate meets the tolerance 0" \
        in capsys.readouterr().err
    assert not path.exists()


class TestGrid:
    def test_grid_run(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "# Morse heat-kernel sweep\n"
            "kernel = mheat\n"
            "k = 0\n"
            "lambda = 1.0\n"
            "X = 0\n"
            "t = 0.5:0.5:1\n"
            "Xp = 0.1:0.9:4\n"
        )
        out = tmp_path / "table.csv"
        rc = main(["grid", "--kernel", "mheat", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        text = out.read_text().splitlines()
        assert len(text) == 5  # header + 4 rows

    def test_bad_spec(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = mheat\nt - nonsense\n")
        rc = main(["grid", "--kernel", "mheat", "--spec", str(spec),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    @pytest.mark.parametrize("line", ["k = abc", "t = 1:2:x", "z = 0,one"])
    def test_value_not_a_number_is_usage_error(self, tmp_path, capsys, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"kernel = hheat\nzp = 0,2\n{line}\n")
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "hheat", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert f"{spec}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec_text", [
        "kernel = mwave\nk = 0\nlambda = 1.0\nXp = 0.3\nb = 0.5:1.0:2\n",
        "k = 0.5\nmu = 0,-0.9\nz = 0,1\nzp = 0.5,2\nzp.y = 1.5:2.5:2\n",
    ], ids=["no_X", "hres_params"])
    def test_incomplete_spec_is_usage_error(self, tmp_path, capsys, spec_text):
        spec = tmp_path / "spec.txt"
        spec.write_text(spec_text)
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "mwave", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "needs" in capsys.readouterr().err

    def test_ranged_axis_of_two_pieces_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = hheat\nk = 0.5\nt = 0.8\nz = 0,1\nzp = 0.3,1.5\nzp.y = 1.5:2.0\n")
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "hheat", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert f"{spec}:6: ranged axis needs lo:hi:count" in capsys.readouterr().err

    def test_component_axis_of_a_scalar_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = hheat\nk = 0.5\nt = 0.8\nz = 0,1\nzp = 0.3,1.5\nk.x = 0.1:0.2:2\n")
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "hheat", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "axis 'k.x' must address .x or .y of a pair parameter" in capsys.readouterr().err

    def test_pair_parameter_given_a_number_is_usage_error(self, tmp_path, capsys):
        # it printed a traceback, exited 1 and left a CSV of the header alone
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = hheat\nk = 0.5\nt = 0.8\nz = 1\nzp = 0.3,1.5\nzp.y = 1.5:2.0:2\n")
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "hheat", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "parameter z=1.0 is not a pair of real numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("count, rc", [("2.0", 0), ("2", 0), ("2.5", 2), ("0", 2), ("inf", 2)])
    def test_axis_count_is_a_number_grid_eval_tests(self, tmp_path, count, rc):
        # one rule for the API and the spec file: a whole count >= 1, written as any number
        spec = tmp_path / "spec.txt"
        spec.write_text(f"kernel = mheat\nk = 0\nlambda = 1.0\nX = 0\nXp = 0.3\nt = 0.5:1.0:{count}\n")
        out = tmp_path / "o.csv"
        assert main(["grid", "--kernel", "mheat", "--spec", str(spec), "--out", str(out)]) == rc
        assert len(out.read_text().splitlines()) == 3 if rc == 0 else not out.exists()

    def test_kernel_line_must_match(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = mheat\nk = 0\nlambda = 1.0\nX = 0\nXp = 0.3\nt = 0.5:1.0:2\n")
        out = tmp_path / "o.csv"
        rc = main(["grid", "--kernel", "mres", "--spec", str(spec), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "mheat spec, not mres" in capsys.readouterr().err

    def test_hres_spec_with_complex_mu(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("kernel = hres\nk = 0.5\nmu = 0,-0.9\nz = 0,1\nzp = 0.5,2\nzp.y = 1.5:2.5:3\n")
        out = tmp_path / "table.csv"
        rc = main(["grid", "--kernel", "hres", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4 and all(row.endswith(",True,") for row in rows[1:])
