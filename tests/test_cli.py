import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from anumrad import cli
from anumrad.cli import EXIT_COUNTEREXAMPLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from anumrad.io import InstanceFormatError, load_instance, matrix_to_json, save_instance

JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture
def jordan_file(tmp_path):
    path = tmp_path / "jordan2.json"
    save_instance(path, {"A": np.eye(2), "T": JORDAN})
    return path


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--dim", "3", "--seed", "4", "--out", str(out)]) == EXIT_OK
        inst = load_instance(out)
        assert inst["dim"] == 3
        assert inst["A"].shape == (3, 3)

    def test_construction_and_rank_flags(self, tmp_path):
        out = tmp_path / "nil.json"
        args = ["gen", "--dim", "4", "--rank-a", "3", "--construction", "nilpotent_half", "--out", str(out)]
        assert main(args) == EXIT_OK
        inst = load_instance(out)
        assert not (inst["T"] @ inst["T"]).any()

    def test_invalid_dim_is_usage_error(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "--dim", "1", "--out", str(out)]) == EXIT_USAGE

    def test_probe_at_rank_zero_is_usage_error(self, tmp_path):
        # A = 0 makes every T adjointable, so no probe can be drawn
        out = tmp_path / "x.json"
        args = ["gen", "--dim", "3", "--rank-a", "0", "--construction", "nonadjointable_probe"]
        assert main(args + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "0"])
    def test_non_finite_or_non_positive_scale_is_usage_error(self, tmp_path, scale):
        out = tmp_path / "x.json"
        assert main(["gen", "--dim", "3", "--scale", scale, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_save_rejects_dimension_mismatch_before_writing(self, tmp_path):
        out = tmp_path / "x.json"
        for matrices in (
            {"A": np.eye(3), "T": np.eye(2)},
            {"A": np.eye(2), "T": np.eye(2), "S": np.eye(3)},
            {"A": np.ones((2, 3)), "T": np.eye(2)},
        ):
            with pytest.raises(InstanceFormatError):
                save_instance(out, matrices)
            assert not out.exists()


    @pytest.mark.parametrize("a", [5.0, [1.0, 2.0], np.ones((2, 2, 2))])
    def test_save_rejects_a_that_is_not_2d(self, tmp_path, a):
        out = tmp_path / "x.json"
        with pytest.raises(InstanceFormatError, match="2-d"):
            save_instance(out, {"A": a, "T": np.eye(2)})
        assert not out.exists()


class TestRadius:
    def test_jordan_enclosure(self, jordan_file, tmp_path):
        out = tmp_path / "rad.json"
        assert main(["radius", "--in", str(jordan_file), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["lower"] <= 0.5 <= payload["upper"]
        assert payload["upper"] - payload["lower"] <= 1e-5
        assert payload["sampling_lower"] <= payload["upper"]

    def test_missing_file(self, tmp_path):
        assert main(["radius", "--in", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["radius", "--in", str(bad)]) == EXIT_IO
        save_instance(bad, {"A": np.eye(2), "T": np.eye(2)})
        payload = json.loads(bad.read_text())
        for dim in (None, [2], "x", 2.7):
            bad.write_text(json.dumps({**payload, "dim": dim}))
            assert main(["radius", "--in", str(bad)]) == EXIT_IO

    def test_non_adjointable_instance(self, tmp_path):
        path = tmp_path / "nonadj.json"
        save_instance(path, {"A": np.diag([1.0, 0.0]), "T": np.array([[1.0, 1.0], [0.0, 1.0]])})
        assert main(["radius", "--in", str(path)]) == EXIT_IO

    @pytest.mark.parametrize("t", [1e308 * np.eye(2), 2.0**-1054 * JORDAN])
    def test_scale_outside_the_certified_range_is_an_input_error(self, tmp_path, capsys, t):
        # 1e308 I overflows the Cartesian parts, 2^-1054 J underflows the guard
        path = tmp_path / "scaled.json"
        save_instance(path, {"A": np.eye(2), "T": t})
        assert main(["radius", "--in", str(path)]) == EXIT_IO
        assert "max|C|" in capsys.readouterr().err

    def test_overflowing_douglas_product_is_an_input_error(self, tmp_path, capsys):
        # lambda_max(A) = 2^500 and max|T| = 2^530 overflowed T*AQ, and the
        # SVD's LinAlgError (a ValueError) came out as a usage error
        path = tmp_path / "leak.json"
        t = np.array([[1.0, 2.0**530], [0.0, 0.0]])
        save_instance(path, {"A": 2.0**500 * np.diag([1.0, 0.0]), "T": t})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["radius", "--in", str(path)]) == EXIT_IO
        assert "no A-adjoint" in capsys.readouterr().err

    def test_tiny_grid_is_usage_error(self, jordan_file):
        assert main(["radius", "--in", str(jordan_file), "--grid-n", "2"]) == EXIT_USAGE
        assert main(["radius", "--in", str(jordan_file), "--samples", "-5"]) == EXIT_USAGE


class TestBounds:
    def test_reports_hold(self, jordan_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--in", str(jordan_file), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        ids = [r["formula_id"] for r in payload["reports"]]
        assert ids == ["eqv_lower", "eqv_upper", "eqv1_lower", "eqv1_upper", "th1", "th2", "th3", "th4"]
        assert all(r["holds"] for r in payload["reports"])

    def test_a_failing_report_exits_with_counterexample(self, jordan_file, tmp_path, monkeypatch):
        classic_bounds = cli.classic_bounds

        def failing(op, rad):
            reports = classic_bounds(op, rad)
            reports[1] = dataclasses.replace(reports[1], holds=False)
            return reports

        monkeypatch.setattr(cli, "classic_bounds", failing)
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--in", str(jordan_file), "--out", str(out)]) == EXIT_COUNTEREXAMPLE
        reports = json.loads(out.read_text())["reports"]
        assert [r["formula_id"] for r in reports if not r["holds"]] == ["eqv_upper"]

    @pytest.mark.parametrize("k", [512, 520])
    def test_scale_outside_the_certified_range_is_an_input_error(self, tmp_path, capsys, k):
        # 2^512 J overflows ||D||_A, 2^520 J also rad.lower**2
        path = tmp_path / "scaled.json"
        save_instance(path, {"A": np.eye(2), "T": 2.0**k * JORDAN})
        assert main(["bounds", "--in", str(path)]) == EXIT_IO
        assert "max|C|" in capsys.readouterr().err

    def test_commutator_sections_when_partners_present(self, tmp_path):
        path = tmp_path / "full.json"
        save_instance(
            path,
            {"A": np.eye(2), "T": JORDAN, "S": JORDAN.conj().T, "X": np.eye(2), "Y": np.eye(2)},
        )
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--in", str(path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        ids = [r["formula_id"] for r in payload["reports"]]
        assert ids.count("lem1") == 2 and ids.count("th5_i") == 2 and ids.count("th5_ii") == 2
        cmp = payload["commutator_comparison"]
        assert cmp["refined31"] <= cmp["zamani_bound"] * (1.0 + 1e-10)
        assert all(r["holds"] for r in payload["reports"])

    @pytest.mark.parametrize("key", ["X", "Y"])
    def test_partner_without_its_pair_is_a_format_error(self, tmp_path, capsys, key):
        path = tmp_path / "half.json"
        half = {"A": np.eye(2), "T": JORDAN, key: np.eye(2)}
        with pytest.raises(InstanceFormatError, match="'X' and 'Y'"):
            save_instance(path, half)
        assert not path.exists()
        path.write_text(json.dumps({"dim": 2, **{k: matrix_to_json(m) for k, m in half.items()}}))
        with pytest.raises(InstanceFormatError, match="'X' and 'Y'"):
            load_instance(path)
        assert main(["bounds", "--in", str(path)]) == EXIT_IO
        assert "'X' and 'Y'" in capsys.readouterr().err


class TestRange:
    def test_cloud_csv(self, jordan_file, tmp_path):
        out = tmp_path / "cloud.csv"
        assert main(["range", "--in", str(jordan_file), "--n-theta", "90", "--out", str(out)]) == EXIT_OK
        with open(out) as fp:
            rows = list(csv.DictReader(fp))
        assert len(rows) == 180  # 90 boundary + 90 interior points
        for row in rows:
            re, im = float(row["re"]), float(row["im"])
            assert re * re + im * im <= 0.25 + 1e-9
        boundary = [r for r in rows if r["theta"] != "nan"]
        assert len(boundary) == 90

    def test_non_positive_n_theta_is_usage_error(self, jordan_file, tmp_path):
        out = tmp_path / "cloud.csv"
        for n_theta in ("0", "-2"):
            args = ["range", "--in", str(jordan_file), "--n-theta", n_theta, "--out", str(out)]
            assert main(args) == EXIT_USAGE


class TestVerify:
    def test_small_run_exits_clean(self, tmp_path):
        out = tmp_path / "suite.json"
        args = [
            "verify", "--n", "6", "--dims", "2..3", "--seed", "42", "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["counterexamples"] == []
        assert payload["n_instances"] == 6
        assert {inst["spec"]["dim"] for inst in payload["instances"]} == {2, 3}
        assert "n_samples" not in payload["config"]
        assert all("witness_value" in inst and "sampled" not in inst for inst in payload["instances"])

    def test_dims_list_syntax(self, tmp_path):
        out = tmp_path / "suite.json"
        args = ["verify", "--n", "4", "--dims", "2,4", "--out", str(out)]
        assert main(args) == EXIT_OK
        payload = json.loads(out.read_text())
        assert {inst["spec"]["dim"] for inst in payload["instances"]} == {2, 4}

    def test_empty_or_negative_suite_is_usage_error(self):
        assert main(["verify", "--dims", "5..2"]) == EXIT_USAGE
        assert main(["verify", "--n", "-3"]) == EXIT_USAGE

    def test_invalid_grid_or_samples_is_usage_error_without_instances(self, tmp_path):
        out = tmp_path / "suite.json"
        # verify draws no samples, so --samples is an unknown option
        for flags in (["--grid-n", "3"], ["--samples", "1000"]):
            assert main(["verify", "--n", "0", *flags, "--out", str(out)]) == EXIT_USAGE
            assert not out.exists()

    def test_dims_outside_instance_range_is_usage_error(self, tmp_path):
        out = tmp_path / "suite.json"
        for flags in (["--n", "1", "--dims", "2,99"], ["--n", "0", "--dims", "1,99"]):
            assert main(["verify", *flags, "--out", str(out)]) == EXIT_USAGE
            assert not out.exists()

    def test_counterexample_exit_code_is_distinct(self):
        assert EXIT_COUNTEREXAMPLE == 1


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_ok(self):
        assert main(["--help"]) == EXIT_OK
