"""End-to-end CLI: subcommands, exit codes, determinism, library agreement."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from contrareg import (Dataset, DegenerateData, FitConfig, GenConfig, LinesConfig,
                       MalformedFile, build_workspace, cross_validate, fit, generate,
                       rank_features)
from contrareg import io
from contrareg.cli import main
from contrareg.io import load_model, read_table, write_table

from conftest import traced_peak


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a child interpreter finds the package in the source tree, installed or not
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def dataset_files(tmp_path):
    data, truth = generate(GenConfig(n=60, m=60, p=4, d=2, seed=11))
    names = [f"f{i}" for i in range(4)]
    fg = tmp_path / "fg.csv"
    bg = tmp_path / "bg.csv"
    write_table(fg, data.X, names, responses=data.r)
    write_table(bg, data.Y, names)
    return fg, bg, data, names


def fit_flags(fg, bg, out, **over):
    flags = ["fit", "--foreground", str(fg), "--background", str(bg),
             "--response-col", "response", "-d", "2", "--out", str(out),
             "--max-iter", "300", "--restarts", "1", "--seed", "11"]
    for key, val in over.items():
        flags += [f"--{key.replace('_', '-')}", str(val)]
    return flags


class TestFitCommand:
    def test_fit_writes_model_and_report(self, dataset_files, tmp_path, capsys):
        fg, bg, data, names = dataset_files
        out = tmp_path / "model.json"
        assert run_cli(*fit_flags(fg, bg, out)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] in (True, False)
        assert report["model"] == str(out)
        params, center_x, center_r, alpha, got_names, meta = load_model(out)
        assert got_names == names
        assert alpha == 1.0
        assert meta["final_ll"] == report["final_ll"]

    def test_refit_same_seed_byte_identical(self, dataset_files, tmp_path, capsys):
        fg, bg, _, _ = dataset_files
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run_cli(*fit_flags(fg, bg, out1)) == 0
        assert run_cli(*fit_flags(fg, bg, out2)) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_alpha_zero_equals_empty_background_file(self, dataset_files,
                                                     tmp_path, capsys):
        fg, bg, _, names = dataset_files
        empty_bg = tmp_path / "empty_bg.csv"
        write_table(empty_bg, np.zeros((0, 4)), names)
        out_a = tmp_path / "ma.json"
        out_e = tmp_path / "me.json"
        assert run_cli(*fit_flags(fg, bg, out_a, alpha="0")) == 0
        rep_a = json.loads(capsys.readouterr().out)
        assert run_cli(*fit_flags(fg, empty_bg, out_e)) == 0
        rep_e = json.loads(capsys.readouterr().out)
        assert rep_a["final_ll"] == rep_e["final_ll"]

    def test_matches_library_fit(self, dataset_files, tmp_path, capsys):
        fg, bg, data, names = dataset_files
        out = tmp_path / "model.json"
        assert run_cli(*fit_flags(fg, bg, out)) == 0
        capsys.readouterr()
        params, center_x, _, _, _, _ = load_model(out)
        lib = fit(Dataset(X=data.X, r=data.r, Y=data.Y, feature_names=names),
                  FitConfig(d=2, max_iter=300, restarts=1, seed=11))
        assert np.array_equal(params.S, lib.params.S)
        assert np.array_equal(center_x, lib.center_x)

    def test_malformed_foreground_exit_2(self, dataset_files, tmp_path, capsys):
        _, bg, _, _ = dataset_files
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2,f3,response\n1,2\n")
        out = tmp_path / "m.json"
        assert run_cli(*fit_flags(bad, bg, out)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and ":2:" in err

    def test_column_disagreement_exit_3(self, dataset_files, tmp_path, capsys):
        fg, _, data, _ = dataset_files
        bg2 = tmp_path / "bg2.csv"
        write_table(bg2, data.Y, ["g0", "g1", "g2", "g3"])
        assert run_cli(*fit_flags(fg, bg2, tmp_path / "m.json")) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("alpha", "nan"), ("alpha", "inf"),
                                             ("tol", "inf")])
    def test_non_finite_setting_exit_3(self, dataset_files, tmp_path, capsys, flag, value):
        fg, bg, _, _ = dataset_files
        out = tmp_path / "m.json"
        assert run_cli(*fit_flags(fg, bg, out, **{flag: value})) == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_data_exit_4(self, tmp_path, capsys):
        fg = tmp_path / "fg.csv"
        bg = tmp_path / "bg.csv"
        fg.write_text("f0,response\n1,0\n1,1\n1,2\n")
        bg.write_text("f0\n1\n1\n")
        assert run_cli("fit", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "-d", "1",
                       "--out", str(tmp_path / "m.json")) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_no_feature_columns_exit_3(self, tmp_path, capsys, command):
        # a foreground table of only the response column is p = 0: a shape error, as
        # every other d > p is, not the degenerate data that a fit would call it
        fg = tmp_path / "fg.csv"
        bg = tmp_path / "bg.csv"
        fg.write_text("response\n0\n1\n2\n")
        bg.write_text("\n")
        out = tmp_path / "m.json"
        tail = (["-d", "1", "--out", str(out)] if command == "fit"
                else ["--d-grid", "1", "--k", "2"])
        assert run_cli(command, "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", *tail) == 3
        assert "no feature columns" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_response_exit_4_without_model(self, dataset_files, tmp_path, capsys):
        _, bg, data, names = dataset_files
        fg = tmp_path / "const.csv"
        write_table(fg, data.X[:4], names, responses=np.ones(4))
        out = tmp_path / "const.json"
        assert run_cli(*fit_flags(fg, bg, out)) == 4
        assert "constant response" in capsys.readouterr().err
        assert not out.exists()


class TestPredictCommand:
    @pytest.fixture
    def model_file(self, dataset_files, tmp_path, capsys):
        fg, bg, data, names = dataset_files
        out = tmp_path / "model.json"
        run_cli(*fit_flags(fg, bg, out))
        capsys.readouterr()
        return out

    def test_matches_library_predict(self, model_file, dataset_files,
                                     tmp_path, capsys):
        fg, bg, data, names = dataset_files
        inp = tmp_path / "in.csv"
        write_table(inp, data.X[:7], names)
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model_file),
                       "--input", str(inp), "--out", str(out)) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        params, center_x, center_r, _, _, _ = load_model(model_file)
        ws = build_workspace(params)
        means = (data.X[:7] - center_x) @ ws.pred_coef + center_r
        for i, row in enumerate(rows):
            assert float(row["mean"]) == pytest.approx(means[i], abs=1e-12)
            assert float(row["variance"]) == ws.pred_var

    def test_center_row_maps_to_center_response(self, model_file, tmp_path,
                                                capsys):
        params, center_x, center_r, _, names, _ = load_model(model_file)
        inp = tmp_path / "in.csv"
        write_table(inp, np.vstack([center_x, center_x]), names)
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model_file),
                       "--input", str(inp), "--out", str(out)) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mean"]) == pytest.approx(center_r, abs=1e-12)
        assert rows[0]["mean"] == rows[1]["mean"]   # identical rows, identical output

    @pytest.mark.parametrize("field, value", [("center_x", float("nan")),
                                              ("center_r", float("inf")),
                                              ("alpha", -1.0), ("alpha", float("nan"))])
    def test_tampered_model_exit_2(self, model_file, dataset_files, tmp_path, capsys,
                                   field, value):
        # JSON allows NaN and Infinity; a model file carrying them predicts nan for every row
        doc = json.loads(model_file.read_text())
        if field == "center_x":
            doc["center_x"][0] = value
        else:
            doc[field] = value
        model_file.write_text(json.dumps(doc))
        fg, bg, data, names = dataset_files
        inp = tmp_path / "in.csv"
        write_table(inp, data.X[:3], names)
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--model", str(model_file),
                       "--input", str(inp), "--out", str(out)) == 2
        capsys.readouterr()
        assert not out.exists()

    def test_dimension_mismatch_exit_3(self, model_file, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("a,b\n1,2\n")
        assert run_cli("predict", "--model", str(model_file),
                       "--input", str(inp), "--out", str(tmp_path / "p.csv")) == 3
        capsys.readouterr()


class TestCvCommand:
    def test_matches_library_cross_validate(self, dataset_files, tmp_path, capsys):
        fg, bg, data, names = dataset_files
        out_csv = tmp_path / "cv.csv"
        assert run_cli("cv", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "--d-grid", "1,2",
                       "--k", "3", "--seed", "11", "--max-iter", "150",
                       "--restarts", "0", "--out-csv", str(out_csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        lib = cross_validate(Dataset(X=data.X, r=data.r, Y=data.Y,
                                     feature_names=names),
                             [1, 2], 3,
                             FitConfig(d=1, max_iter=150, restarts=0, seed=11))
        assert doc["best_d"] == lib.best_d
        assert doc["test_r2"] == [[float(v) for v in row] for row in lib.test_r2]
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6      # 2 d values x 3 folds
        assert float(rows[0]["test_r2"]) == lib.test_r2[0, 0]

    def test_constant_response_all_cells_null(self, tmp_path, capsys):
        data, _ = generate(GenConfig(n=20, m=10, p=3, d=1, seed=3))
        names = ["f0", "f1", "f2"]
        fg = tmp_path / "fg.csv"
        bg = tmp_path / "bg.csv"
        write_table(fg, data.X, names, responses=np.zeros(20))
        write_table(bg, data.Y, names)
        assert run_cli("cv", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "--d-grid", "1",
                       "--k", "4", "--max-iter", "100", "--restarts", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v is None for row in doc["test_r2"] for v in row)

    def test_too_few_samples_exit_3(self, dataset_files, capsys):
        fg, bg, _, _ = dataset_files
        assert run_cli("cv", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "--d-grid", "1",
                       "--k", "61") == 3
        capsys.readouterr()

    def test_invalid_config_exit_3(self, dataset_files, capsys):
        # every cell would fail alike, which must not read as an all-null report
        fg, bg, _, _ = dataset_files
        assert run_cli("cv", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "--d-grid", "1,2",
                       "--k", "3", "--max-iter", "0") == 3
        assert "max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [",", "a", "1,x", "0,1"])
    def test_bad_d_grid_exit_3(self, dataset_files, capsys, grid):
        fg, bg, _, _ = dataset_files
        assert run_cli("cv", "--foreground", str(fg), "--background", str(bg),
                       "--response-col", "response", "--d-grid", grid) == 3
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_round_trip_equals_in_memory_generator(self, tmp_path, capsys):
        prefix = tmp_path / "sim"
        assert run_cli("simulate", "--n", "12", "--m", "8", "--p", "3",
                       "--d", "1", "--seed", "42", "--out-prefix", str(prefix)) == 0
        capsys.readouterr()
        X, names, r = read_table(f"{prefix}_foreground.csv", response_col="response")
        Y, _, _ = read_table(f"{prefix}_background.csv")
        data, truth = generate(GenConfig(n=12, m=8, p=3, d=1, seed=42))
        assert np.array_equal(X, data.X)
        assert np.array_equal(r, data.r)
        assert np.array_equal(Y, data.Y)
        got_truth, _, _, _, _, _ = load_model(f"{prefix}_truth.json")
        assert np.array_equal(got_truth.S, truth.S)

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for prefix in (a, b):
            assert run_cli("simulate", "--n", "5", "--m", "5", "--p", "2",
                           "--d", "1", "--seed", "7",
                           "--out-prefix", str(prefix)) == 0
        capsys.readouterr()
        assert (tmp_path / "a_foreground.csv").read_bytes() == \
               (tmp_path / "b_foreground.csv").read_bytes()

    def test_lines_mode_round_trip(self, tmp_path, capsys):
        from contrareg import LinesConfig, generate_lines
        prefix = tmp_path / "lines"
        assert run_cli("simulate", "--lines", "--n", "10", "--m", "6",
                       "--image-side", "8", "--seed", "5",
                       "--out-prefix", str(prefix)) == 0
        capsys.readouterr()
        X, _, r = read_table(f"{prefix}_foreground.csv", response_col="response")
        data = generate_lines(LinesConfig(image_side=8, n_fg=10, n_bg=6,
                                          line_column=4, seed=5))
        assert np.array_equal(X, data.X)
        assert np.array_equal(r, data.r)

    def test_response_col_clashing_with_a_feature_exit_3(self, tmp_path, capsys):
        # the header f0,f1,f2,f0 would be unreadable by fit
        assert run_cli("simulate", "--n", "5", "--m", "5", "--p", "3", "--d", "1",
                       "--response-col", "f0", "--out-prefix", str(tmp_path / "s")) == 3
        assert "--response-col" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lines_bytes_equal_in_process_writes(self, tmp_path, capsys):
        # the background table is written by a worker process; its bytes do not change
        from contrareg import generate_lines
        prefix = tmp_path / "sim"
        assert run_cli("simulate", "--lines", "--n", "9", "--m", "7", "--image-side", "6",
                       "--seed", "3", "--out-prefix", str(prefix)) == 0
        assert multiprocessing.active_children() == []
        capsys.readouterr()
        data = generate_lines(LinesConfig(n_fg=9, n_bg=7, image_side=6, seed=3))
        write_table(tmp_path / "fg.csv", data.X, data.feature_names, responses=data.r)
        write_table(tmp_path / "bg.csv", data.Y, data.feature_names)
        for part, ref in (("foreground", "fg"), ("background", "bg")):
            assert (tmp_path / f"sim_{part}.csv").read_bytes() == \
                   (tmp_path / f"{ref}.csv").read_bytes()

    @pytest.mark.parametrize("blocked", ["missing_dir", "background_is_a_dir",
                                         "foreground_fails_part_way"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, blocked):
        prefix, line = tmp_path / "sim", 0
        if blocked == "missing_dir":
            prefix = tmp_path / "missing" / "sim"
            named = f"{prefix}_foreground.csv"
        elif blocked == "background_is_a_dir":
            named = f"{prefix}_background.csv"
            (tmp_path / "sim_background.csv").mkdir()
            (tmp_path / "sim_foreground.csv").write_bytes(b"x,response\r\n1.0,2.0\r\n")
        else:
            named, line = f"{prefix}_foreground.csv", 2
            (tmp_path / "sim_foreground.csv").write_bytes(b"x,response\r\n1.0,2.0\r\n")

            def part_way(path, *args, **kwargs):
                with open(path, "w") as fh:
                    fh.write("p0,p1\r\n")
                raise MalformedFile(path, 2, "No space left on device")

            monkeypatch.setattr(io, "write_table", part_way)
        before = {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}
        assert run_cli("simulate", "--lines", "--n", "5", "--m", "5", "--image-side", "4",
                       "--out-prefix", str(prefix)) == 2
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}:{line}: ")
        # neither table of this run and no partial file; a table already there is unchanged
        assert {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_p_or_d_exit_3(self, tmp_path, capsys):
        code = run_cli("simulate", "--n", "5", "--m", "5",
                       "--out-prefix", str(tmp_path / "s"))
        assert code == 3
        assert "--p" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lines_bytes_pinned(self, tmp_path, capsys):
        # 500 rows span several row blocks of the noise draw; sha256 of each table
        prefix = tmp_path / "sim"
        assert run_cli("simulate", "--lines", "--n", "500", "--m", "500", "--seed", "3",
                       "--out-prefix", str(prefix)) == 0
        capsys.readouterr()
        digests = [hashlib.sha256((tmp_path / f"sim_{part}.csv").read_bytes()).hexdigest()
                   for part in ("foreground", "background")]
        assert digests == [
            "dfbacbcb40d76d055061f7f5a0ab4600f9cc72d45dd9803ae5d90de50aaa8927",
            "25d4a67b92a9f3be21cafba0138483889bd865a2629eaeb8daca8fd9cc217927"]

    def test_peak_allocation_near_one_copy_of_the_data(self, tmp_path, capsys):
        # the writer process inherits the background matrix; nothing pickles or copies it
        code, peak = traced_peak(lambda: run_cli(
            "simulate", "--lines", "--n", "500", "--m", "500",
            "--out-prefix", str(tmp_path / "sim")))
        assert code == 0
        assert multiprocessing.active_children() == []
        data_bytes = 2 * 500 * 28 * 28 * 8         # X and Y
        assert peak <= 1.35 * data_bytes

    @staticmethod
    def _fail_background(monkeypatch, background, foreground=None):
        """io.write_table with each table's write replaced, where one is given."""
        write = io.write_table

        def patched(path, *args, **kwargs):
            replace = background if "_background.csv" in str(path) else foreground
            return (replace or write)(path, *args, **kwargs)

        monkeypatch.setattr(io, "write_table", patched)

    def test_writer_exception_raised_without_outputs(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("writer broke")

        self._fail_background(monkeypatch, broken)
        with pytest.raises(RuntimeError, match="writer broke"):
            run_cli("simulate", "--lines", "--n", "5", "--m", "5", "--image-side", "4",
                    "--out-prefix", str(tmp_path / "sim"))
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    def test_writer_death_exit_2_without_outputs(self, tmp_path, capsys, monkeypatch):
        # the writer exits without reporting: the pipe reaches EOF, its exit code is 1
        self._fail_background(monkeypatch, lambda *args, **kwargs: os._exit(1))
        assert run_cli("simulate", "--lines", "--n", "5", "--m", "5", "--image-side", "4",
                       "--out-prefix", str(tmp_path / "sim")) == 2
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'sim'}_background.csv:0: ")
        assert "code 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_foreground_failure_stops_the_writer(self, tmp_path, capsys, monkeypatch):
        # the writer is stopped, not waited for, when this process fails first
        def fail(path, *args, **kwargs):
            raise MalformedFile(path, 0, "No space left on device")

        self._fail_background(monkeypatch, lambda *args, **kwargs: time.sleep(60), fail)
        start = time.perf_counter()
        assert run_cli("simulate", "--lines", "--n", "5", "--m", "5", "--image-side", "4",
                       "--out-prefix", str(tmp_path / "sim")) == 2
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []
        assert "_foreground.csv:0: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestGradcheckCommand:
    def test_default_flags_exit_0(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        for block in ("S", "W", "beta", "sigma2", "tau2"):
            assert f"{block}: worst relative error" in out

    def test_p_above_n_plus_m_exit_0(self, capsys):
        assert run_cli("gradcheck", "--p", "60", "--n", "5", "--m", "5", "--d", "3") == 0
        assert "gradient mismatch" not in capsys.readouterr().out

    def test_impossible_rtol_exit_5(self, capsys):
        assert run_cli("gradcheck", "--rtol", "0") == 5
        out = capsys.readouterr().out
        assert "offending instance seed" in out

    @pytest.mark.parametrize("flags", [["--d", "0"], ["--rtol", "nan"], ["--rtol", "inf"],
                                       ["--rtol", "-1"], ["--step", "nan"], ["--step", "inf"]])
    def test_invalid_flags_exit_3(self, capsys, flags):
        assert run_cli("gradcheck", "--trials", "3", *flags) == 3
        assert "error:" in capsys.readouterr().err

    def test_zero_foreground_blocks_exact_zero(self, capsys):
        # n=0 everywhere: W, beta, tau2 gradients vanish identically
        assert run_cli("gradcheck", "--n", "0", "--trials", "5") == 0
        out = capsys.readouterr().out
        for block in ("W", "beta", "tau2"):
            assert f"{block}: worst relative error 0.000e+00" in out


class TestRankCommand:
    def test_matches_library_ranking(self, dataset_files, tmp_path, capsys):
        fg, bg, data, names = dataset_files
        model = tmp_path / "model.json"
        run_cli(*fit_flags(fg, bg, model))
        capsys.readouterr()
        out = tmp_path / "rank.csv"
        assert run_cli("rank", "--model", str(model), "--out", str(out)) == 0
        capsys.readouterr()
        params, center_x, center_r, _, got_names, _ = load_model(model)
        lib = fit(Dataset(X=data.X, r=data.r, Y=data.Y, feature_names=names),
                  FitConfig(d=2, max_iter=300, restarts=1, seed=11))
        ranking = rank_features(lib.params)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["feature"] for row in rows] == \
               [names[i - 1] for i in ranking.order]
        assert [float(row["score"]) for row in rows] == \
               [ranking.scores[i - 1] for i in ranking.order]

    def test_zero_beta_exit_4(self, tmp_path, capsys, rng):
        from contrareg import ModelParams
        from contrareg.io import model_to_dict, save_model
        params = ModelParams(S=rng.standard_normal((3, 1)),
                             W=rng.standard_normal((3, 1)),
                             beta=np.zeros(1), sigma2=1.0, tau2=1.0)
        model = tmp_path / "m.json"
        save_model(model, model_to_dict(params, np.zeros(3), 0.0, 1.0,
                                        {"converged": True, "iterations": 1,
                                         "final_ll": -1.0, "seed": 0}))
        assert run_cli("rank", "--model", str(model),
                       "--out", str(tmp_path / "r.csv")) == 4
        capsys.readouterr()


@pytest.mark.parametrize("command", ["rank", "predict"])
@pytest.mark.parametrize("names, code", [(5, 2), ("abc", 2), (["a", "b"], 3)],
                         ids=["int", "str", "short"])
def test_model_feature_names_checked(tmp_path, capsys, rng, command, names, code):
    from contrareg import ModelParams
    from contrareg.io import model_to_dict, save_model
    params = ModelParams(S=rng.standard_normal((3, 1)), W=rng.standard_normal((3, 1)),
                         beta=np.ones(1), sigma2=1.0, tau2=1.0)
    doc = model_to_dict(params, np.zeros(3), 0.0, 1.0, {})
    doc["feature_names"] = names
    model = tmp_path / "m.json"
    save_model(model, doc)
    inp = tmp_path / "in.csv"
    write_table(inp, np.zeros((2, 3)), ["a", "b", "c"])
    out = tmp_path / "out.csv"
    argv = {"rank": [], "predict": ["--input", str(inp)]}[command]
    assert run_cli(command, "--model", str(model), *argv, "--out", str(out)) == code
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cv", "predict", "rank"])
def test_unwritable_output_exit_2(dataset_files, tmp_path, capsys, command):
    fg, bg, _, _ = dataset_files
    model = tmp_path / "m.json"
    assert run_cli(*fit_flags(fg, bg, model, max_iter=5, restarts=0)) == 0
    out = tmp_path / "missing" / "out"
    data_flags = ["--foreground", str(fg), "--background", str(bg),
                  "--response-col", "response"]
    argv = {"fit": [*data_flags, "-d", "1", "--max-iter", "5", "--out", str(out)],
            "cv": [*data_flags, "--d-grid", "1", "--k", "2", "--max-iter", "5",
                   "--out-csv", str(out)],
            "predict": ["--model", str(model), "--input", str(bg), "--out", str(out)],
            "rank": ["--model", str(model), "--out", str(out)]}[command]
    capsys.readouterr()
    assert run_cli(command, *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}:0: ")


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--seed", "-1"]),
    ("fit", ["--seed", str(2**64)]),
    ("cv", ["--seed", "-1"]),
    ("simulate", ["--seed", "-1"]),
    ("simulate", ["--lines", "--seed", "-1"]),
    ("gradcheck", ["--n", "-1"]),
    ("gradcheck", ["--m", "-1"]),
    ("gradcheck", ["--trials", "-1"]),
])
def test_negative_seed_or_size_exit_3(dataset_files, tmp_path, capsys, command, flags):
    fg, bg, _, _ = dataset_files
    data_flags = ["--foreground", str(fg), "--background", str(bg),
                  "--response-col", "response"]
    argv = {"fit": data_flags + ["-d", "1", "--out", str(tmp_path / "m.json")],
            "cv": data_flags + ["--d-grid", "1,2", "--k", "3"],
            "simulate": ["--n", "5", "--m", "5", "--p", "2", "--d", "1",
                         "--out-prefix", str(tmp_path / "s")],
            "gradcheck": []}[command]
    assert run_cli(command, *argv, *flags) == 3
    assert "error:" in capsys.readouterr().err


def test_bare_command_lines_use_the_config_defaults(dataset_files, tmp_path, monkeypatch,
                                                    capsys):
    # flags not given are not passed, so each default comes from its config class
    fg, bg, _, _ = dataset_files
    seen = []

    def capture(config):
        seen.append(config)
        raise DegenerateData("config captured")           # exit 4, before any work

    monkeypatch.setattr("contrareg.cli.fit", lambda data, config: capture(config))
    monkeypatch.setattr("contrareg.cli.cross_validate",
                        lambda data, d_grid, k, config: capture(config))
    monkeypatch.setattr("contrareg.cli.generate_lines", capture)
    monkeypatch.setattr("contrareg.cli.generate", capture)
    data_flags = ["--foreground", str(fg), "--background", str(bg),
                  "--response-col", "response"]
    prefix = ["--out-prefix", str(tmp_path / "s")]
    assert run_cli("fit", *data_flags, "-d", "2", "--out", str(tmp_path / "m.json")) == 4
    assert run_cli("cv", *data_flags, "--d-grid", "1,2") == 4
    assert run_cli("simulate", "--lines", "--n", "7", "--m", "5", *prefix) == 4
    assert run_cli("simulate", "--n", "7", "--m", "5", "--p", "3", "--d", "1", *prefix) == 4
    capsys.readouterr()
    assert seen == [FitConfig(d=2), FitConfig(d=1), LinesConfig(n_fg=7, n_bg=5),
                    GenConfig(n=7, m=5, p=3, d=1)]


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from contrareg.cli import main; sys.exit(main())",
             ],
            input="", capture_output=True, text=True, env=SRC_ENV)
        # argparse exits 2 on missing subcommand; the harness only checks
        # that the module entry point is importable and runs
        assert proc.returncode == 2

    def test_gradcheck_subprocess_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from contrareg.cli import main; "
             "sys.exit(main(['gradcheck', '--trials', '3']))"],
            capture_output=True, text=True, env=SRC_ENV)
        assert proc.returncode == 0, proc.stderr
