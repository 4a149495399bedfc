"""CSV table and JSON model-file formats used by the CLI.

Floats are serialized with Python's shortest round-trip repr, so writing,
reading back, and writing again yields byte-identical files.

A table is read in one pass: csv parses its header, and numpy's C parser
reads the body where csv would only split each line at its commas (no
quote, blank line or cell over the field size limit).  A body numpy
rejects, or reads with another shape or a non-finite cell, is read record
by record by the same csv reader and float(), which name the line of each
error.  Both give the same array bits.  A file that cannot be opened, read
or written raises MalformedFile at line 0.
"""

import csv
import json
from contextlib import contextmanager

import numpy as np

from .errors import MalformedFile, ShapeMismatch
from .model import ModelParams

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def read_table(path, response_col=None):
    """Read a feature table; returns (matrix, feature_names, responses or None).

    The file is read once, as the lines csv would read from it.  One csv
    reader parses the header, then each record where numpy's parser
    declines the body; an error names the line its record ends on.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise MalformedFile(path, 0, str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(path, _undecodable_line(path, exc.encoding),
                            f"cannot decode as {exc.encoding}: {exc.reason}") from exc
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedFile(path, 1, "empty file")
        if len(set(header)) != len(header):
            raise MalformedFile(path, 1, "duplicate column names")
        if response_col not in (None, *header):
            raise MalformedFile(path, 1, f"response column {response_col!r} not found")
        cells = _numpy_body(lines[reader.line_num:], len(header))
        if cells is None:
            cells = _csv_body(path, reader, len(header))
    except csv.Error as exc:
        raise MalformedFile(path, reader.line_num, f"invalid CSV: {exc}") from exc
    if response_col is None:
        return cells, header, None
    ridx = header.index(response_col)
    return (np.delete(cells, ridx, axis=1), header[:ridx] + header[ridx + 1:],
            cells[:, ridx].copy())


def _numpy_body(body, width):
    """The body read by numpy's parser, or None where csv must read it.

    Used only where csv would split each line at its commas and nothing
    else: no quote, blank line or cell over the field size limit.  numpy
    then converts each cell with the routine float() uses; a body it
    rejects, or reads with another shape or a non-finite cell, is left to
    csv, the one source of error messages.
    """
    limit = csv.field_size_limit()
    if not body or any('"' in line or not line.strip() or _over_limit(line, limit)
                       for line in body):
        return None
    try:
        cells = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.shape != (len(body), width) or not np.isfinite(cells).all():
        return None
    return cells


def _over_limit(line, limit):
    """Whether a cell of line may be over csv's limit, which holds per cell, not per line."""
    return len(line) > limit and any(len(cell) > limit for cell in line.split(","))


def _csv_body(path, reader, width):
    """The rest of reader's records as floats; an error names the line its record ends on."""
    rows = []
    for row in reader:
        if len(row) != width:
            raise MalformedFile(path, reader.line_num, f"expected {width} cells, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise MalformedFile(path, reader.line_num, f"non-numeric cell: {exc}") from exc
        if not np.isfinite(vals).all():
            raise MalformedFile(path, reader.line_num, "non-finite value")
        rows.append(vals)
    return np.asarray(rows, float).reshape(len(rows), width)


def _undecodable_line(path, encoding):
    """First line that encoding cannot decode; the text reader decodes in blocks, not lines."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode(encoding)
            except UnicodeDecodeError:
                return lineno
    return 0


def write_table(path, matrix, names, responses=None, response_col="response"):
    """Write a table read_table reads back bit for bit; ShapeMismatch, before any
    file is opened, for a table it would reject."""
    matrix = np.asarray(matrix, float)
    header = list(names)
    if matrix.ndim != 2 or matrix.shape[1] != len(header):
        raise ShapeMismatch(f"matrix of shape {matrix.shape} for {len(header)} column names")
    ends = ["\r\n"] * len(matrix)
    if responses is not None:
        responses = np.asarray(responses, float)
        if responses.shape != (len(matrix),):
            raise ShapeMismatch(f"responses of shape {responses.shape} for {len(matrix)} rows")
        header.append(response_col)
        ends = [f",{cell!r}\r\n" for cell in responses.tolist()]
    if len(set(header)) != len(header):
        raise ShapeMismatch("duplicate column names")
    if not (np.isfinite(matrix).all() and (responses is None or np.isfinite(responses).all())):
        raise ShapeMismatch("non-finite cell")
    with writing(path) as fh:
        csv.writer(fh).writerow(header)      # names may need quoting; numbers never do
        # one row at a time: tolist() of the whole matrix would hold every cell as a float
        # object, and stacking the responses onto it would copy it
        for row, end in zip(matrix, ends):
            fh.write(",".join(map(repr, row.tolist())) + end)


def write_rows(path, header, rows):
    """A small table through csv.writer; a Python float is written as its repr."""
    with writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions(path, means, variance):
    variance = float(variance)
    write_rows(path, ["row", "mean", "variance"],
               ((i, mu, variance) for i, mu in enumerate(np.asarray(means, float).tolist())))


@contextmanager
def writing(path, newline=""):
    """Open path to write text; an OSError in opening or writing is a MalformedFile."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise MalformedFile(path, 0, str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_to_dict(params, center_x, center_r, alpha, meta, feature_names=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "p": params.p,
        "d": params.d,
        "S": [[float(v) for v in row] for row in params.S],
        "W": [[float(v) for v in row] for row in params.W],
        "beta": [float(v) for v in params.beta],
        "sigma2": params.sigma2,
        "tau2": params.tau2,
        "center_x": [float(v) for v in np.asarray(center_x, float)],
        "center_r": float(center_r),
        "alpha": float(alpha),
        "feature_names": list(feature_names) if feature_names is not None else None,
        "fit": dict(meta),
    }


def save_model(path, doc):
    with writing(path, newline=None) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path):
    """Load a model file; returns (params, center_x, center_r, alpha, names, meta).

    A non-finite center_x or center_r, an alpha that is negative or not
    finite, or feature_names that are neither null nor a list of strings,
    is a MalformedFile; feature_names of the wrong length is a ShapeMismatch.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedFile(path, 0, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(path, exc.lineno, exc.msg) from exc
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise MalformedFile(path, 1, f"unsupported schema_version {doc['schema_version']}")
        params = ModelParams(S=doc["S"], W=doc["W"], beta=doc["beta"],
                             sigma2=doc["sigma2"], tau2=doc["tau2"])
        center_x = np.asarray(doc["center_x"], float)
        center_r = float(doc["center_r"])
        alpha = float(doc["alpha"])
        names = doc.get("feature_names")
        meta = doc.get("fit", {})
        p, d = doc["p"], doc["d"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(path, 1, f"invalid model document: {exc}") from exc
    if not (np.all(np.isfinite(center_x)) and np.isfinite(center_r)):
        raise MalformedFile(path, 1, "center_x and center_r must be finite")
    if not 0.0 <= alpha < np.inf:
        raise MalformedFile(path, 1, f"alpha must be finite and nonnegative, got {alpha}")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(name, str) for name in names)):
        raise MalformedFile(path, 1, "feature_names must be null or a list of strings")
    if params.S.shape != (p, d):
        raise ShapeMismatch(f"S shape {params.S.shape} does not match p={p}, d={d}")
    if center_x.shape != (params.p,):
        raise ShapeMismatch("center_x length does not match p")
    if names is not None and len(names) != params.p:
        raise ShapeMismatch("feature_names length does not match p")
    return params, center_x, center_r, alpha, names, meta
