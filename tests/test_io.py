"""CSV table and JSON model file formats."""

import csv
import json

import numpy as np
import pytest

import contrareg.io
from contrareg import MalformedFile, ShapeMismatch
from contrareg.cli import main as cli_main
from contrareg.io import (load_model, model_to_dict, read_table, save_model,
                          write_predictions, write_table)

from conftest import random_params, traced_peak


class TestTables:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        matrix = rng.standard_normal((5, 3))
        r = rng.standard_normal(5)
        path = tmp_path / "t.csv"
        write_table(path, matrix, ["a", "b", "c"], responses=r)
        got, names, resp = read_table(path, response_col="response")
        assert names == ["a", "b", "c"]
        assert np.array_equal(got, matrix)
        assert np.array_equal(resp, r)
        path2 = tmp_path / "t2.csv"
        write_table(path2, got, names, responses=resp)
        assert path.read_bytes() == path2.read_bytes()

    def test_exact_bytes(self, tmp_path):
        # quoted names, CRLF line ends, shortest round-trip reprs, response as the last column
        path = tmp_path / "t.csv"
        write_table(path, [[0.1, -0.0, 1e-300], [1.5e300, 3.0, -2.5]], ['a,b', 'q"x', 'c'],
                    responses=[7.0, 0.30000000000000004], response_col="r")
        assert path.read_bytes() == (b'"a,b","q""x",c,r\r\n0.1,-0.0,1e-300,7.0\r\n'
                                     b'1.5e+300,3.0,-2.5,0.30000000000000004\r\n')

    def test_write_with_responses_holds_no_copy_of_the_matrix(self, tmp_path, rng):
        # the response cell is written row by row, not stacked onto a copy of the matrix
        matrix = rng.standard_normal((500, 784))
        _, peak = traced_peak(lambda: write_table(
            tmp_path / "t.csv", matrix, [f"c{j}" for j in range(784)],
            responses=rng.standard_normal(500)))
        assert peak <= 0.25 * matrix.nbytes

    def test_read_without_response(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        matrix, names, resp = read_table(path)
        assert names == ["x", "y"]
        assert resp is None
        assert np.array_equal(matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_file_and_line(self, tmp_path):
        for text, line in (("x,y\n1,2\n3\n", 3),
                           ('"x\ny",z\r\n1,2\r\n3\r\n', 4),   # a header name spans lines 1-2
                           ('x,y\r\n"1\n",2\r\n3\r\n', 4)):   # a body cell spans lines 2-3
            path = tmp_path / "bad.csv"
            path.write_bytes(text.encode())
            with pytest.raises(MalformedFile) as exc:
                read_table(path)
            assert str(path) in str(exc.value)
            assert exc.value.line == line, text

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1\nfoo\n")
        with pytest.raises(MalformedFile) as exc:
            read_table(path)
        assert exc.value.line == 3

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\nnan\n")
        with pytest.raises(MalformedFile):
            read_table(path)

    @pytest.mark.parametrize("text, line, message", [
        ("x,y\n1,2\n\n3,4\n", 3, "expected 2 cells, got 0"),     # blank line inside
        ("x,y\n1,2\n\n", 3, "expected 2 cells, got 0"),           # blank line at the end
        ("x,y\n1,2\n#3,4\n", 3, "non-numeric"),                   # no comment syntax
    ], ids=["blank_middle", "blank_end", "hash_cell"])
    def test_rejected_lines(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(MalformedFile) as exc:
            read_table(path)
        assert exc.value.line == line
        assert f"{path}:{line}:" in str(exc.value) and message in str(exc.value)

    @pytest.mark.parametrize("text, expected", [
        ('x,y\n"1.5",2\n', [[1.5, 2.0]]),                         # quoted number
        ("x,y\n 1.5 ,2\n", [[1.5, 2.0]]),                         # spaces around a number
        ("x,y\n1_000,2\n", [[1000.0, 2.0]]),                      # float() accepts underscores
        ("x,y\n1,2\n", [[1.0, 2.0]]),                             # one data row stays 2-d
    ], ids=["quoted", "spaces", "underscore", "one_row"])
    def test_accepted_cells(self, tmp_path, text, expected):
        path = tmp_path / "t.csv"
        path.write_text(text)
        matrix, _, _ = read_table(path)
        assert matrix.shape == np.shape(expected)
        assert np.array_equal(matrix, expected)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,x\n1,2\n")
        with pytest.raises(MalformedFile):
            read_table(path)

    @pytest.mark.parametrize("names, responses", [(["a", "response"], [1.0, 2.0]),
                                                  (["a", "a"], None)])
    def test_write_refuses_duplicate_header(self, tmp_path, names, responses):
        # read_table rejects a duplicate header, so write_table writes none
        path = tmp_path / "t.csv"
        with pytest.raises(ShapeMismatch, match="duplicate"):
            write_table(path, np.ones((2, 2)), names, responses=responses)
        assert not path.exists()

    @pytest.mark.parametrize("matrix, names, responses, message", [
        (np.ones((3, 3)), ["a", "b"], None, "for 2 column names"),
        (np.ones((2, 2)), ["a", "b"], [1.0, 2.0, 3.0], "for 2 rows"),
        ([[1.0, np.nan], [2.0, 3.0]], ["a", "b"], None, "non-finite"),
        (np.ones((2, 2)), ["a", "b"], [1.0, np.inf], "non-finite"),
    ], ids=["more_cells_than_names", "responses_length", "nan_cell", "inf_response"])
    def test_write_refuses_what_read_table_rejects(self, tmp_path, matrix, names, responses,
                                                   message):
        path = tmp_path / "t.csv"
        with pytest.raises(ShapeMismatch, match=message):
            write_table(path, matrix, names, responses=responses)
        assert not path.exists()

    def test_missing_response_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(MalformedFile):
            read_table(path, response_col="r")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedFile):
            read_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedFile):
            read_table(tmp_path / "nope.csv")

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,y\n1,2\n3,4\n5,\xff\n")
        with pytest.raises(MalformedFile) as exc:
            read_table(path)
        assert str(path) in str(exc.value)
        assert exc.value.line == 4

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, numpy_parsed):
        # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
        path = tmp_path / "t.csv"
        write_table(path, np.array([[1.5, -2.0], [0.25, 3.0]]), ["a", "b"],
                    responses=[0.5, 1.0])
        plain = read_table(path, response_col="a")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = read_table(path, response_col="a")
        assert numpy_parsed == [True, True]
        assert plain[1] == marked[1] == ["b", "response"]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(plain[::2], marked[::2]))

    def test_csv_error_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        # one cell beyond the csv module's default field size limit
        path.write_text("x\n1\n" + "1" * 200000 + "\n")
        with pytest.raises(MalformedFile) as exc:
            read_table(path)
        assert exc.value.line == 3

    def test_write_predictions_format(self, tmp_path):
        path = tmp_path / "p.csv"
        write_predictions(path, [1.25, -0.5], 0.75)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,mean,variance"
        assert lines[1] == "0,1.25,0.75"
        assert lines[2] == "1,-0.5,0.75"


@pytest.mark.parametrize("write", [
    lambda path: write_table(path, np.ones((2, 2)), ["a", "b"]),
    lambda path: write_predictions(path, [1.0], 0.5),
    lambda path: save_model(path, {"schema_version": 1}),
], ids=["write_table", "write_predictions", "save_model"])
def test_unwritable_path_is_malformed_file(tmp_path, write):
    path = tmp_path / "missing" / "out"
    with pytest.raises(MalformedFile) as exc:
        write(path)
    assert exc.value.line == 0 and str(path) in str(exc.value)


def _mutate(rows, kind, rng):
    """One defect (or line-end style) put into a table of cell strings; returns (lines, eol)."""
    i = int(rng.integers(1, len(rows))) if len(rows) > 1 else None   # a body row, if any
    j = int(rng.integers(len(rows[0])))
    cells = {"hash_cell": "#1", "quoted": '"1.5"', "spaces": " 2.5 ", "underscore": "1_000",
             "nan": "nan", "inf": "-inf", "overflow": "1e400", "empty_cell": "",
             "over_field_limit": "0" * 200000 + "1"}
    eol = "\r\n"
    if kind in cells:
        rows[i][j] = cells[kind]
    elif kind == "ragged":
        rows[i] = rows[i][:-1] if len(rows[i]) > 1 else rows[i] + ["7"]
    elif kind == "one_row":
        del rows[2:]
    elif kind == "header_only":
        del rows[1:]
    lines = [",".join(row) for row in rows]
    if kind in ("blank_line", "whitespace_line"):
        lines.insert(i, "" if kind == "blank_line" else " \t")
    elif kind in ("stray_cr_header", "stray_cr_body"):
        lines[0 if kind == "stray_cr_header" else i] += "\r"
    elif kind == "cr_only":
        eol = "\r"
    elif kind == "lf_only":
        eol = "\n"
    return lines, eol


MUTATIONS = ["clean", "lf_only", "cr_only", "no_final_newline", "one_row", "header_only",
             "blank_line", "whitespace_line", "hash_cell", "quoted", "spaces", "underscore",
             "nan", "inf", "overflow", "empty_cell", "ragged", "over_field_limit",
             "stray_cr_header", "stray_cr_body"]


@pytest.fixture
def numpy_parsed(monkeypatch):
    """Spy on io._numpy_body: the list of whether each call parsed the body."""
    numpy_body, parsed = contrareg.io._numpy_body, []

    def spy(body, width):
        cells = numpy_body(body, width)
        parsed.append(cells is not None)
        return cells

    monkeypatch.setattr(contrareg.io, "_numpy_body", spy)
    return parsed


class TestReadPaths:
    """read_table against itself with numpy's body parser off: same bits or same error."""

    @staticmethod
    def _outcome(path, response_col):
        try:
            matrix, names, responses = read_table(path, response_col=response_col)
        except MalformedFile as exc:
            return "error", exc.line, str(exc)
        return ("table", matrix.shape, matrix.tobytes(), names,
                None if responses is None else responses.tobytes())

    @pytest.mark.parametrize("response_col", [None, "c0"])
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_same_result_as_per_line_parser(self, tmp_path, monkeypatch, numpy_parsed, kind,
                                            response_col):
        spy = contrareg.io._numpy_body
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n_cols, n_rows = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            bits = rng.integers(0, 2**64, size=(n_rows, n_cols), dtype=np.uint64)
            values = bits.view(float)
            values[~np.isfinite(values)] = rng.standard_normal()
            rows = [[f"c{k}" for k in range(n_cols)]]
            rows += [[repr(v) for v in row] for row in values.tolist()]
            lines, eol = _mutate(rows, kind, rng)
            text = eol.join(lines) + ("" if kind == "no_final_newline" else eol)
            path = tmp_path / f"{seed}.csv"
            path.write_bytes(text.encode())
            numpy_parsed.clear()
            monkeypatch.setattr(contrareg.io, "_numpy_body", spy)
            got = self._outcome(path, response_col)
            monkeypatch.setattr(contrareg.io, "_numpy_body", lambda body, width: None)
            want = self._outcome(path, response_col)
            assert got == want
            if kind in ("clean", "lf_only", "no_final_newline", "one_row"):
                assert got[0] == "table"
                assert numpy_parsed == [True]

    def test_lines_over_the_field_size_limit(self, tmp_path, monkeypatch, numpy_parsed):
        # csv limits each field, not the line: a long line of short cells stays with numpy
        path = tmp_path / "t.csv"
        values = np.random.default_rng(1).standard_normal((3, 40))
        write_table(path, values, [f"c{j}" for j in range(40)])
        limit = csv.field_size_limit(100)
        try:
            got = self._outcome(path, None)
            monkeypatch.setattr(contrareg.io, "_numpy_body", lambda body, width: None)
            want = self._outcome(path, None)
        finally:
            csv.field_size_limit(limit)
        assert numpy_parsed == [True]
        assert got == want and got[2] == values.tobytes()

    def test_quoted_header_names(self, tmp_path, numpy_parsed):
        # the header may need csv's quoting, and a quoted name may span lines
        for header, first in (('"a,b",c', "a,b"), ('"a\nb",c', "a\nb")):
            path = tmp_path / "t.csv"
            path.write_bytes(f"{header}\r\n1.5,2\r\n".encode())
            numpy_parsed.clear()
            matrix, names, _ = read_table(path)
            assert numpy_parsed == [True]
            assert names == [first, "c"]
            assert matrix.tobytes() == np.array([[1.5, 2.0]]).tobytes()


class TestModelFiles:
    def test_round_trip_identity(self, tmp_path, rng):
        params = random_params(rng, 4, 2)
        center = rng.standard_normal(4)
        meta = {"seed": 7, "iterations": 12, "final_ll": -34.5, "converged": True}
        doc = model_to_dict(params, center, 1.5, 0.5, meta,
                            feature_names=["a", "b", "c", "d"])
        path = tmp_path / "m.json"
        save_model(path, doc)
        got_params, got_center, got_cr, got_alpha, names, got_meta = load_model(path)
        assert np.array_equal(got_params.S, params.S)
        assert np.array_equal(got_params.W, params.W)
        assert np.array_equal(got_params.beta, params.beta)
        assert got_params.sigma2 == params.sigma2
        assert got_params.tau2 == params.tau2
        assert np.array_equal(got_center, center)
        assert got_cr == 1.5 and got_alpha == 0.5
        assert names == ["a", "b", "c", "d"]
        assert got_meta == meta
        # write -> read -> write yields identical bytes
        path2 = tmp_path / "m2.json"
        save_model(path2, model_to_dict(got_params, got_center, got_cr,
                                        got_alpha, got_meta, feature_names=names))
        assert path.read_bytes() == path2.read_bytes()

    def test_schema_version_checked(self, tmp_path, rng):
        doc = model_to_dict(random_params(rng, 2, 1), np.zeros(2), 0.0, 1.0, {})
        doc["schema_version"] = 99
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(MalformedFile):
            load_model(path)

    @pytest.mark.parametrize("key", ["schema_version", "p", "d"])
    @pytest.mark.parametrize("spell", [str, lambda v: v == 1, lambda v: None, float],
                             ids=["string", "bool", "null", "float"])
    def test_integer_field_not_a_json_integer(self, tmp_path, rng, capsys, key, spell):
        # the right value as a string, a boolean, null or a float: true == 1 and
        # 2.0 == 2 in Python, but neither is a JSON integer
        doc = model_to_dict(random_params(rng, 2, 1), np.zeros(2), 0.0, 1.0, {})
        doc[key] = spell(doc[key])
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(MalformedFile, match=f"{key} must be an integer"):
            load_model(path)
        assert cli_main(["rank", "--model", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        capsys.readouterr()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_missing_key(self, tmp_path, rng):
        doc = model_to_dict(random_params(rng, 2, 1), np.zeros(2), 0.0, 1.0, {})
        del doc["beta"]
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(MalformedFile):
            load_model(path)

    @pytest.mark.parametrize("key", ["p", "d"])
    def test_missing_dimension_key(self, tmp_path, rng, key):
        doc = model_to_dict(random_params(rng, 2, 1), np.zeros(2), 0.0, 1.0, {})
        del doc[key]
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_inconsistent_shapes(self, tmp_path, rng):
        doc = model_to_dict(random_params(rng, 3, 1), np.zeros(3), 0.0, 1.0, {})
        doc["center_x"] = [0.0, 0.0]
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(ShapeMismatch):
            load_model(path)

    @pytest.mark.parametrize("names", [5, "abc", [1, 2, 3], ["a", None, "c"], {"a": 1}],
                             ids=["int", "str", "ints", "none-entry", "dict"])
    def test_feature_names_not_a_list_of_strings(self, tmp_path, rng, names):
        doc = model_to_dict(random_params(rng, 3, 1), np.zeros(3), 0.0, 1.0, {})
        doc["feature_names"] = names
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(MalformedFile):
            load_model(path)

    def test_feature_names_length_checked(self, tmp_path, rng):
        doc = model_to_dict(random_params(rng, 3, 1), np.zeros(3), 0.0, 1.0, {},
                            feature_names=["a", "b"])
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(ShapeMismatch):
            load_model(path)

    def test_undecodable_byte_names_its_line(self, tmp_path, rng, capsys):
        # model files are decoded as tables are: a bad byte is an input error, exit 2
        doc = model_to_dict(random_params(rng, 2, 1), np.zeros(2), 0.0, 1.0, {},
                            feature_names=["a", "bc"])
        path = tmp_path / "m.json"
        save_model(path, doc)
        raw = path.read_bytes().replace(b'"bc"', b'"b\xffc"')
        path.write_bytes(raw)
        with pytest.raises(MalformedFile) as exc:
            load_model(path)
        assert exc.value.line == raw[:raw.index(b"\xff")].count(b"\n") + 1 > 1
        assert cli_main(["rank", "--model", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_byte_order_mark_is_not_part_of_the_document(self, tmp_path, rng):
        params = random_params(rng, 3, 2)
        path = tmp_path / "m.json"
        save_model(path, model_to_dict(params, np.zeros(3), 0.0, 1.0, {},
                                       feature_names=["a", "b", "c"]))
        plain = load_model(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = load_model(path)
        for name in ("S", "W", "beta", "sigma2", "tau2"):
            assert np.array_equal(getattr(marked[0], name), getattr(plain[0], name))
        assert marked[4] == plain[4] == ["a", "b", "c"]

    def test_zero_latent_dimension(self, tmp_path, rng):
        doc = model_to_dict(random_params(rng, 3, 1), np.zeros(3), 0.0, 1.0, {})
        doc.update(d=0, S=[[], [], []], W=[[], [], []], beta=[])
        path = tmp_path / "m.json"
        save_model(path, doc)
        with pytest.raises(ShapeMismatch):
            load_model(path)
