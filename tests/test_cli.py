import csv
import json

import numpy as np
import pytest

from anumrad.cli import EXIT_COUNTEREXAMPLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from anumrad.io import InstanceFormatError, load_instance, save_instance

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
            "verify", "--n", "6", "--dims", "2..3", "--seed", "42",
            "--samples", "1000", "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["counterexamples"] == []
        assert payload["n_instances"] == 6
        assert {inst["spec"]["dim"] for inst in payload["instances"]} == {2, 3}

    def test_dims_list_syntax(self, tmp_path):
        out = tmp_path / "suite.json"
        args = ["verify", "--n", "4", "--dims", "2,4", "--samples", "500", "--out", str(out)]
        assert main(args) == EXIT_OK
        payload = json.loads(out.read_text())
        assert {inst["spec"]["dim"] for inst in payload["instances"]} == {2, 4}

    def test_empty_or_negative_suite_is_usage_error(self):
        assert main(["verify", "--dims", "5..2"]) == EXIT_USAGE
        assert main(["verify", "--n", "-3"]) == EXIT_USAGE

    def test_counterexample_exit_code_is_distinct(self):
        assert EXIT_COUNTEREXAMPLE == 1


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_ok(self):
        assert main(["--help"]) == EXIT_OK
