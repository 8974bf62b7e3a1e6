"""Tests for matrix reading, result writing, and the CLI contract."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

import glmpca as g
from glmpca import DataError
from glmpca import io as gio
from glmpca import cli
from glmpca.cli import run_cli
from glmpca.optimizer import FitConfig, FitResult

from conftest import DATA_DIR

FIXTURE = DATA_DIR / "counts_10x20.mtx"


def make_result(n_obs=4, n_feat=3, n_latent=2, n_obs_cov=1, n_feat_cov=0):
    rng = np.random.default_rng(0)
    return FitResult(
        factors=rng.normal(size=(n_obs, n_latent)),
        loadings=rng.normal(size=(n_feat, n_latent)),
        coef_A=rng.normal(size=(n_feat, n_obs_cov)),
        coef_Gamma=rng.normal(size=(n_obs, n_feat_cov)),
        offset=rng.normal(size=n_obs),
        trace=[(1, -10.0), (2, -8.5), (3, -8.4)],
        converged=True, stop_reason="tol", iterations_run=3, final_q=-8.4)


class TestMatrixMarketReader:
    def test_coordinate_entries_fill_dense_zeros(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 2 5\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[0.0, 5.0], [0.0, 0.0]])
        assert loaded.row_names is None

    def test_comments_and_integer_field_accepted(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "% a comment\n2 3 2\n1 1 4\n2 3 1\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values,
                                      [[4.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_bad_banner_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(DataError, match=r":1:"):
            gio.read_matrix(path)

    def test_malformed_entry_names_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 x 5\n")
        with pytest.raises(DataError, match=r":3:"):
            gio.read_matrix(path)

    def test_out_of_bounds_entry_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 5\n")
        with pytest.raises(DataError, match="outside"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("size", ["10000000000", "100000000"])
    def test_impossible_size_names_line_and_shape(self, tmp_path, size):
        # neither dense shape can be allocated on a 64-bit machine: the
        # first overflows the address arithmetic, the second is 71 PiB
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"% huge\n{size} {size} 0\n")
        with pytest.raises(DataError, match=rf"m\.mtx:3: .*{size} x {size}"):
            gio.read_matrix(path)

    @pytest.mark.parametrize("body, message", [
        ("2 2 3\n1 1 1\n", r"m\.mtx: 2 entries missing at end of file"),
        ("2 2 1\n1 1 1\n2 2 1\n", r"m\.mtx: more entries than declared"),
        ("% only comments\n\n", r"m\.mtx: missing size line"),
    ], ids=["truncated", "oversized", "no_size_line"])
    def test_entry_count_and_size_line_errors(self, tmp_path, body,
                                              message):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        + body)
        with pytest.raises(DataError, match=message):
            gio.read_matrix(path)

    def test_duplicate_coordinates_are_summed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 4\n1 1 1.5\n2 2 1\n1 1 2\n1 1 -0.25\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values,
                                      [[3.25, 0.0], [0.0, 1.0]])

    def test_comments_between_entries_keep_line_numbers(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% header comment\n2 2 3\n1 1 1\n% between\n\n"
                        "2 2 1\n1 q 1\n")
        with pytest.raises(DataError,
                           match=r"m\.mtx:8: malformed entry '1 q 1'"):
            gio.read_matrix(path)

    def test_negative_count_under_poisson_names_cell(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 -2\n")
        loaded = gio.read_matrix(path)
        with pytest.raises(DataError, match="row 1, column 1"):
            g.check_data_matrix(loaded.values, g.poisson())


class TestCsvReader:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,0\n0,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[3.0, 0.0], [0.0, 4.0]])
        assert loaded.row_names is None and loaded.col_names is None

    def test_header_and_row_names_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,s1,s2\ngeneA,1,2\ngeneB,3,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        assert loaded.row_names == ["geneA", "geneB"]
        assert loaded.col_names == ["s1", "s2"]

    def test_empty_corner_cell_marks_numeric_row_names(self, tmp_path):
        # pandas.DataFrame.to_csv and R's write.csv leave the corner empty
        path = tmp_path / "m.csv"
        path.write_text(",o1,o2,o3\n0,5,3,1\n1,2,0,4\n")
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[5, 3, 1], [2, 0, 4]])
        assert loaded.row_names == ["0", "1"]
        assert loaded.col_names == ["o1", "o2", "o3"]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeff1,2,3\n4,5,6\n".encode("utf-8"))
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, [[1, 2, 3], [4, 5, 6]])
        assert loaded.row_names is None and loaded.col_names is None

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataError, match=r":2:"):
            gio.read_matrix(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="oops"):
            gio.read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            gio.read_matrix(path)

    def test_write_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-8, 8, (5, 4))
        path = tmp_path / "m.csv"
        gio._write_csv(path, values, [f"r{i}" for i in range(5)],
                       [f"c{j}" for j in range(4)])
        loaded = gio.read_matrix(path)
        np.testing.assert_array_equal(loaded.values, values)


class TestWriteResult:
    def test_file_set_and_shapes(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        gio.write_result(result, tmp_path)
        factors = (tmp_path / "factors.csv").read_text().splitlines()
        assert factors[0] == ",dim1"
        assert len(factors) == 3  # header + 2 data rows
        assert len(factors[1].split(",")) == 2  # name + 1 value column
        assert not (tmp_path / "coef_Gamma.csv").exists()
        for name in ("loadings.csv", "coef_A.csv", "offset.csv",
                     "trace.csv", "meta.json"):
            assert (tmp_path / name).exists()

    def test_coef_gamma_written_when_present(self, tmp_path):
        result = make_result(n_feat_cov=2)
        gio.write_result(result, tmp_path)
        lines = (tmp_path / "coef_Gamma.csv").read_text().splitlines()
        assert lines[0] == ",z1,z2"
        assert len(lines) == 5

    def test_trace_rows_and_monotone_column(self, tmp_path):
        result = make_result()
        gio.write_result(result, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,Q"
        assert len(lines) == 1 + len(result.trace)
        qs = [float(line.split(",")[1]) for line in lines[1:]]
        assert qs == sorted(qs)

    def test_meta_round_trips_through_json(self, tmp_path):
        result = make_result()
        gio.write_result(result, tmp_path, config={"family": "poisson"})
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["converged"] is True
        assert meta["stop_reason"] == "tol"
        assert meta["iterations_run"] == 3
        assert meta["objective"] == "partial"
        assert meta["config"]["family"] == "poisson"

    def test_custom_names_carried_through(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        gio.write_result(result, tmp_path, row_names=["g1", "g2", "g3"],
                         col_names=["s1", "s2"])
        loadings = (tmp_path / "loadings.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in loadings[1:]] == \
            ["g1", "g2", "g3"]
        factors = (tmp_path / "factors.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in factors[1:]] == ["s1", "s2"]

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        result = make_result(n_obs=2, n_feat=3, n_latent=1)
        names = ["g0,x", 'say "hi"', "g2"]
        gio.write_result(result, tmp_path, row_names=names,
                         col_names=["s,1", "s2"])
        loadings = gio.read_matrix(tmp_path / "loadings.csv")
        assert loadings.row_names == names
        np.testing.assert_array_equal(loadings.values, result.loadings)
        factors = gio.read_matrix(tmp_path / "factors.csv")
        assert factors.row_names == ["s,1", "s2"]


CSV_OUTPUTS = ("factors.csv", "loadings.csv", "coef_A.csv", "offset.csv",
               "trace.csv")


class TestCli:
    def run(self, *args):
        return run_cli(list(args))

    def test_documented_invocation_is_deterministic(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = self.run("fit", "--input", str(FIXTURE),
                            "--family", "poisson", "--dims", "2",
                            "--seed", "7", "--output-dir", str(out))
            assert code == 0
            outs.append(out)
        for name in CSV_OUTPUTS:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_missing_dispersion_exits_1_naming_flag(self, tmp_path, capsys):
        code = self.run("fit", "--input", str(FIXTURE),
                        "--family", "negative_binomial", "--dims", "2",
                        "--output-dir", str(tmp_path))
        assert code == 1
        assert "--dispersion" in capsys.readouterr().err

    def test_negative_count_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "3 3 1\n1 1 -2\n")
        code = self.run("fit", "--input", str(bad), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert "row 1, column 1" in capsys.readouterr().err

    def test_impossible_size_exits_1(self, tmp_path, capsys):
        huge = tmp_path / "huge.mtx"
        huge.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "100000000 100000000 0\n")
        code = self.run("fit", "--input", str(huge), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert "huge.mtx:2: cannot hold" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = self.run("fit", "--input", str(tmp_path / "nope.mtx"),
                        "--family", "poisson", "--dims", "1",
                        "--output-dir", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err

    def test_non_convergence_exits_2_with_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "2", "--seed", "7",
                        "--max-iters", "1", "--tol", "1e-12",
                        "--output-dir", str(out))
        assert code == 2
        for name in CSV_OUTPUTS + ("meta.json",):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False
        assert meta["stop_reason"] == "max_iters"

    def test_stalled_fit_exits_2_naming_the_stall(self, tmp_path, capsys,
                                                  monkeypatch):
        # the CLI keeps the default max_halvings; without halvings the
        # first sweep on these counts lowers Q, so the fit stalls at once
        monkeypatch.setattr(cli, "FitConfig",
                            functools.partial(FitConfig, max_halvings=0))
        data = tmp_path / "counts.csv"
        Y = np.random.default_rng(0).poisson(5.0, size=(40, 30))
        np.savetxt(data, Y, fmt="%d", delimiter=",")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(data), "--family", "poisson",
                        "--dims", "2", "--output-dir", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "stalled at iteration 1" in err
        assert "did not converge within" not in err
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False
        assert meta["stop_reason"] == "stalled"

    def test_negative_binomial_run(self, tmp_path):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE),
                        "--family", "negative_binomial",
                        "--dispersion", "2.0", "--dims", "1",
                        "--seed", "1", "--output-dir", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["dispersion"] == 2.0
        assert "full_scoring_coef" not in meta["config"]

    def test_meta_config_echoes_every_flag_resolved(self, tmp_path):
        out = tmp_path / "o"
        self.run("fit", "--input", str(FIXTURE), "--family", "poisson",
                 "--dims", "2", "--max-iters", "2",
                 "--output-dir", str(out))
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"] == {
            "input_path": str(FIXTURE), "input_format": "matrixmarket",
            "family": "poisson", "dispersion": None,
            "dims": 2, "obs_covariates": None, "feat_covariates": None,
            "offset": "none", "intercept": True, "penalty": 1e-4,
            "max_iters": 2, "tol": 1e-6, "trace_every": 1, "seed": 0, "output_dir": str(out)}

    def test_pandas_style_csv_fits_three_observations(self, tmp_path):
        rng = np.random.default_rng(4)
        counts = rng.poisson(3.0, size=(8, 3))
        path = tmp_path / "counts.csv"
        path.write_text(",o1,o2,o3\n" + "".join(
            f"{j},{a},{b},{c}\n" for j, (a, b, c) in enumerate(counts)))
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(path), "--family", "poisson",
                        "--dims", "1", "--output-dir", str(out))
        assert code in (0, 2)
        factors = gio.read_matrix(out / "factors.csv")
        assert factors.row_names == ["o1", "o2", "o3"]
        loadings = (out / "loadings.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in loadings[1:]] == \
            [str(j) for j in range(8)]

    @staticmethod
    def numeric_names_csv(tmp_path):
        """8 x 12 counts with pandas' default names: rows and columns
        are named 0, 1, ..."""
        counts = np.random.default_rng(12).poisson(3.0, size=(8, 12))
        path = tmp_path / "counts.csv"
        path.write_text("," + ",".join(str(i) for i in range(12)) + "\n"
                        + "".join(f"{j}," + ",".join(map(str, row)) + "\n"
                                  for j, row in enumerate(counts)))
        return path

    def test_numeric_row_names_read_back(self, tmp_path):
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(self.numeric_names_csv(tmp_path)),
                        "--family", "poisson", "--dims", "2",
                        "--output-dir", str(out))
        assert code in (0, 2)
        loadings = gio.read_matrix(out / "loadings.csv")
        assert loadings.values.shape == (8, 2)
        assert loadings.row_names == [str(j) for j in range(8)]
        assert loadings.col_names == ["dim1", "dim2"]

    def test_written_offset_passes_back_through_file(self, tmp_path):
        path = self.numeric_names_csv(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        args = ("fit", "--input", str(path), "--family", "poisson",
                "--dims", "2")
        assert self.run(*args, "--offset", "auto",
                        "--output-dir", str(first)) in (0, 2)
        code = self.run(*args, "--offset", f"file:{first / 'offset.csv'}",
                        "--output-dir", str(second))
        assert code in (0, 2)
        # the offset reads back exactly, so the second fit is the first
        for name in ("offset.csv", "factors.csv", "loadings.csv"):
            assert (second / name).read_text() == (first / name).read_text()

    def test_offset_auto_and_file_agree(self, tmp_path):
        loaded = gio.read_matrix(FIXTURE)
        colsums = loaded.values.sum(axis=0)
        delta = np.log(colsums / colsums.mean())
        offpath = tmp_path / "offset.csv"
        offpath.write_text("\n".join(format(d, ".17g") for d in delta) + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1", "--seed", "3",
                        "--offset", "auto", "--output-dir", str(out_a)) == 0
        assert self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1", "--seed", "3",
                        "--offset", f"file:{offpath}",
                        "--output-dir", str(out_b)) == 0
        assert (out_a / "factors.csv").read_bytes() == \
            (out_b / "factors.csv").read_bytes()

    def test_gaussian_no_intercept_reproduces_pca_fit(self, tmp_path):
        # the rotation step pins only the span of the loadings, so the
        # CLI output is compared to the PCA oracle at the level it
        # determines: the rank-3 reconstruction, orthonormality, ordering
        rng = np.random.default_rng(123)
        Y = rng.standard_normal((20, 40))
        Y -= Y.mean(axis=1, keepdims=True)  # pre-centered data
        path = tmp_path / "y.csv"
        with open(path, "w") as fh:
            for row in Y:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(path), "--family", "gaussian",
                        "--dims", "3", "--offset", "none", "--no-intercept",
                        "--penalty", "0", "--tol", "1e-12",
                        "--max-iters", "20000", "--seed", "5",
                        "--output-dir", str(out))
        assert code == 0

        def read_block(name):
            lines = (out / name).read_text().splitlines()[1:]
            return np.array([[float(t) for t in line.split(",")[1:]]
                             for line in lines])

        fitted = read_block("factors.csv")
        loadings_fit = read_block("loadings.csv")
        import oracle
        scores, loadings = oracle.pca_reference(Y, 3)
        recon_fit = loadings_fit @ fitted.T
        recon_ref = loadings @ scores.T
        err = np.linalg.norm(recon_fit - recon_ref) / np.linalg.norm(recon_ref)
        assert err <= 1e-4
        np.testing.assert_allclose(loadings_fit.T @ loadings_fit, np.eye(3),
                                   rtol=0, atol=1e-10)
        norms = np.linalg.norm(fitted, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_covariate_files_flow_through(self, tmp_path):
        rng = np.random.default_rng(9)
        obs_cov = tmp_path / "xc.csv"
        obs_cov.write_text(
            "\n".join(format(v, ".17g") for v in rng.normal(size=20)) + "\n")
        feat_cov = tmp_path / "zc.csv"
        feat_cov.write_text(
            "\n".join(format(v, ".17g") for v in rng.normal(size=10)) + "\n")
        out = tmp_path / "o"
        code = self.run("fit", "--input", str(FIXTURE), "--family",
                        "poisson", "--dims", "1", "--seed", "4",
                        "--obs-covariates", str(obs_cov),
                        "--feat-covariates", str(feat_cov),
                        "--output-dir", str(out))
        assert code == 0
        coef_a = (out / "coef_A.csv").read_text().splitlines()
        assert coef_a[0] == ",x1,x2"  # intercept + supplied covariate
        assert len(coef_a) == 11
        coef_g = (out / "coef_Gamma.csv").read_text().splitlines()
        assert coef_g[0] == ",z1"
        assert len(coef_g) == 21

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "glmpca", "fit", "--input", str(FIXTURE),
             "--family", "poisson", "--dims", "1", "--seed", "2",
             "--output-dir", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "factors.csv").exists()

    def test_bad_flag_exits_1(self, capsys):
        assert self.run("fit", "--no-such-flag") == 1
        assert capsys.readouterr().err
