"""CSV table and JSON model-file formats used by the CLI.

Floats are serialized with Python's shortest round-trip repr, so writing,
reading back, and writing again yields byte-identical files.
"""

import csv
import json

import numpy as np

from .errors import MalformedFile, ShapeMismatch
from .model import ModelParams

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def read_table(path, response_col=None):
    """Read a feature table; returns (matrix, feature_names, responses or None)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise MalformedFile(path, 0, str(exc)) from exc
    except csv.Error as exc:
        raise MalformedFile(path, reader.line_num, f"invalid CSV: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(path, _undecodable_line(path, exc.encoding),
                            f"cannot decode as {exc.encoding}: {exc.reason}") from exc
    if not rows:
        raise MalformedFile(path, 1, "empty file")
    header = rows[0]
    if len(set(header)) != len(header):
        raise MalformedFile(path, 1, "duplicate column names")
    if response_col is not None:
        if response_col not in header:
            raise MalformedFile(path, 1, f"response column {response_col!r} not found")
        ridx = header.index(response_col)
    else:
        ridx = None
    names = [h for i, h in enumerate(header) if i != ridx]

    data = []
    resp = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise MalformedFile(path, lineno,
                                f"expected {len(header)} cells, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise MalformedFile(path, lineno, f"non-numeric cell: {exc}") from exc
        if not all(np.isfinite(vals)):
            raise MalformedFile(path, lineno, "non-finite value")
        if ridx is None:
            data.append(vals)
        else:
            resp.append(vals[ridx])
            data.append([v for i, v in enumerate(vals) if i != ridx])
    matrix = np.asarray(data, float).reshape(len(data), len(names))
    responses = np.asarray(resp, float) if ridx is not None else None
    return matrix, names, responses


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
    matrix = np.asarray(matrix, float)
    header = list(names)
    if responses is not None:
        header.append(response_col)
        matrix = np.column_stack([matrix, np.asarray(responses, float)])
    if len(set(header)) != len(header):         # read_table rejects such a file
        raise ShapeMismatch("duplicate column names")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)      # names may need quoting; numbers never do
        # one row at a time: tolist() of the whole matrix would hold every cell as a float object
        for row in matrix:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def write_predictions(path, means, variance):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "mean", "variance"])
        for i, mu in enumerate(means):
            writer.writerow([i, repr(float(mu)), repr(float(variance))])


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
    with open(path, "w") as fh:
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
