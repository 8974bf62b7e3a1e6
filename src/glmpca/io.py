"""Matrix readers and result writers.

Two input formats, told apart by the file's first line, not its name:
MatrixMarket coordinate files, which open with a ``%%MatrixMarket``
banner (read into a dense array, absent entries zero), and CSV with
features as rows and observations as columns, where a header row and a
leading row-name column are auto-detected.  A MatrixMarket body is
parsed by ``np.loadtxt`` from the file's path, after the header lines
are skipped: as int64 under an ``integer`` banner, else as floats, to
the same array.  Inputs are opened more than once, so they must be
regular files, not pipes, and are read as plain text, never
decompressed.  All numbers are written with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DataError
from .optimizer import FitResult


@dataclass
class LoadedMatrix:
    """A parsed matrix, the format it was read as, and any name metadata
    found alongside it."""

    values: np.ndarray
    row_names: list[str] | None = None
    col_names: list[str] | None = None
    format: str | None = None  # "matrixmarket" or "csv" once read


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------------
# readers


def read_matrix_market(path) -> LoadedMatrix:
    """Parse a MatrixMarket coordinate file into a dense matrix.

    The banner, comments and size line are read line by line.  The
    entries are parsed by one ``np.loadtxt`` call, given the file's path
    and the number of header lines to skip, checked as arrays and added
    into the dense matrix in file order, so duplicate coordinates are
    summed.  ``%`` starts a comment, on a line of its own or after an
    entry.  The file is opened more than once, so it must be a regular
    file, not a pipe; it is read as plain text, never decompressed.

    The body of a file with an ``integer`` banner, as count data come,
    is parsed first as int64, which is faster.  When that parse fails (a
    real value, an index in float form, a number past int64, a malformed
    line) or its entries fail the checks, the body is parsed again as
    floats, to the same array: a value past 2**53 rounds to the same
    double either way.  A ``real`` body is parsed as floats only.  Only
    when the float checks fail is the body scanned again line by line,
    by ``_body_error``, to name the first bad line."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno == 1:
                fields = line.lower().split()
                if (len(fields) < 4 or fields[0] != "%%matrixmarket"
                        or fields[1] != "matrix" or fields[2] != "coordinate"
                        or fields[3] not in ("real", "integer")
                        or (len(fields) > 4 and fields[4] != "general")):
                    raise DataError(
                        f"{path}:{lineno}: unsupported MatrixMarket banner "
                        f"{line!r} (need 'matrix coordinate real general')")
                continue
            if not line or line.startswith("%"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 'rows cols nnz' size line")
            try:
                rows, cols, nnz = (int(t) for t in tokens)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-integer size line {line!r}")
            if rows < 1 or cols < 1 or nnz < 0:
                raise DataError(f"{path}:{lineno}: invalid sizes {line!r}")
            try:
                values = np.zeros((rows, cols))
            except (ValueError, MemoryError):  # too big to address
                raise DataError(
                    f"{path}:{lineno}: cannot hold a dense {rows} x "
                    f"{cols} matrix") from None
            break
        else:
            raise DataError(f"{path}: missing size line")

    ints = None
    if fields[3] == "integer":
        try:
            with warnings.catch_warnings():
                # numpy 1.23 parses "1.0" as an integer with only a
                # DeprecationWarning: any warning, an empty body's too,
                # sends the body to the float parse
                warnings.simplefilter("error")
                ints = _load_body(path, lineno, np.int64)
        except (ValueError, Warning):
            pass
    if ints is not None and _entries_fit(ints, rows, cols, nnz):
        entries = ints
    else:
        try:
            with warnings.catch_warnings():
                # an empty body is judged by the entry count below
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data",
                    UserWarning)
                entries = _load_body(path, lineno, float)
        except ValueError:
            entries = None
        if entries is None or not _entries_fit(entries, rows, cols, nnz):
            raise DataError(_body_error(path, lineno, rows, cols, nnz))
    if nnz:
        # the flat index (r - 1) * cols + (c - 1), exact below
        # rows * cols in int64 and in whole floats alike.  It is built
        # in a contiguous array, faster than in place in the strided
        # row column.  Integer values are cast first: left to ufunc.at,
        # the cast is slow.
        flat = entries[:, 0] - 1
        flat *= cols
        flat += entries[:, 1]
        flat -= 1
        np.add.at(values.reshape(-1), flat.astype(np.intp, copy=False),
                  entries[:, 2].astype(float, copy=False))
    return LoadedMatrix(values, format="matrixmarket")


# the suffixes numpy's DataSource decompresses a path by
_DECOMPRESSED_BY_NUMPY = (".gz", ".bz2", ".xz", ".lzma")


def _load_body(path: Path, header_lines: int, dtype) -> np.ndarray:
    """``np.loadtxt`` of the lines after the first ``header_lines``.

    Given a path, numpy parses the file in its chunked C reader; given a
    file object, it pulls the lines through Python, at about half the
    speed.  But numpy decompresses a path named by a compression suffix,
    so such a file is handed over open, as the plain text it is read as
    everywhere else.  Both count lines alike: the file is opened in
    universal-newline mode either way, as the header loop opens it."""
    if os.path.splitext(path)[1] in _DECOMPRESSED_BY_NUMPY:
        opened = open(path, encoding="utf-8-sig")
    else:
        opened = contextlib.nullcontext(path)
    with opened as source:
        return np.loadtxt(source, dtype=dtype, comments="%", ndmin=2,
                          skiprows=header_lines, encoding="utf-8-sig")


def _entries_fit(entries: np.ndarray, rows: int, cols: int,
                 nnz: int) -> bool:
    """Whether parsed entries, int64 or float, are ``nnz`` (row, col,
    value) triples with whole indices inside a ``rows`` x ``cols``
    matrix."""
    if len(entries) != nnz:
        return False
    if nnz == 0:
        return True
    if entries.shape[1] != 3:
        return False
    # reductions per index column; NaN fails every comparison, and an
    # infinite index one of the bounds
    for index, limit in ((entries[:, 0], rows), (entries[:, 1], cols)):
        if not (index.min() >= 1 and index.max() <= limit):
            return False
    if entries.dtype.kind == "f":  # integers are whole
        index = entries[:, :2]
        return bool(np.all(index == np.floor(index)))
    return True


def _whole_number(token: str) -> int:
    """An entry index as the array checks accept it: a decimal integer,
    or a number in float form whose value is whole (``1.0``, ``1e0``)."""
    try:
        return int(token)
    except ValueError:
        number = float(token)
        if not number.is_integer():
            raise ValueError(token) from None
        return int(number)


def _body_error(path: Path, size_lineno: int, rows: int, cols: int,
                nnz: int) -> str:
    """The message for a MatrixMarket body that failed the array checks.

    A slow line scan, run only on that error path: the first bad line
    in file order wins, then an entry count that differs from the size
    line.  It reads lines as the array checks do: ``%`` starts a
    comment, and a token is a number only as ``np.loadtxt`` parses it,
    in ASCII without underscores, though ``int`` and ``float`` take
    both."""
    count = 0
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("%", 1)[0].strip()
            if lineno <= size_lineno or not line:
                continue
            tokens = line.split()
            if len(tokens) != 3:
                return f"{path}:{lineno}: expected 'row col value' entry"
            try:
                if not all(t.isascii() and "_" not in t for t in tokens):
                    raise ValueError(line)
                r, c = _whole_number(tokens[0]), _whole_number(tokens[1])
                float(tokens[2])
            except ValueError:
                return f"{path}:{lineno}: malformed entry {line!r}"
            if not (1 <= r <= rows and 1 <= c <= cols):
                return (f"{path}:{lineno}: entry ({r}, {c}) outside "
                        f"{rows} x {cols} matrix")
            count += 1
    if count < nnz:
        return f"{path}: {nnz - count} entries missing at end of file"
    if count > nnz:
        return f"{path}: more entries than declared"
    return f"{path}: entries np.loadtxt cannot parse"


def read_csv_matrix(path) -> LoadedMatrix:
    """Parse a CSV matrix, auto-detecting a header row and row names.

    A non-numeric first cell in any data row, or an empty top-left
    header cell (as pandas and R's write.csv write), marks a row-name
    column.  A UTF-8 byte-order mark is skipped."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw_rows = [(lineno, row) for lineno, row in
                    enumerate(csv.reader(fh), start=1) if row]
    if not raw_rows:
        raise DataError(f"{path}: empty file")

    first = raw_rows[0][1]
    has_header = any(not _is_number(tok) for tok in first)
    body = raw_rows[1:] if has_header else raw_rows
    if not body:
        raise DataError(f"{path}: no data rows")
    has_row_names = (has_header and first[0] == "") or any(
        not _is_number(row[0]) for _, row in body)

    col_names = None
    if has_header:
        col_names = first[1:] if has_row_names else list(first)
    row_names = [] if has_row_names else None

    width = None
    data = []
    for lineno, row in body:
        if has_row_names:
            row_names.append(row[0])
            row = row[1:]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}:{lineno}: expected {width} values, got {len(row)}")
        try:
            data.append([float(tok) for tok in row])
        except ValueError:
            bad = next(tok for tok in row if not _is_number(tok))
            raise DataError(f"{path}:{lineno}: non-numeric value {bad!r}")
    if width == 0:
        raise DataError(f"{path}: no data columns")
    if col_names is not None and len(col_names) != width:
        raise DataError(
            f"{path}: header has {len(col_names)} names for {width} columns")
    return LoadedMatrix(np.array(data), row_names, col_names, "csv")


def read_matrix(path) -> LoadedMatrix:
    """Read a matrix as MatrixMarket when its first line starts with
    ``%%MatrixMarket`` (in any case), else as CSV.  Both are read as
    UTF-8 with any byte-order mark skipped; an undecodable byte raises
    DataError."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            banner = fh.readline().lstrip().lower()
        if banner.startswith("%%matrixmarket"):
            return read_matrix_market(path)
        return read_csv_matrix(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} "
                        f"0x{exc.object[exc.start]:02x})") from None


# ----------------------------------------------------------------------
# writers


def _write_csv(path: Path, values: np.ndarray, row_names: list[str],
               col_names: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        # csv quotes names holding commas or quotes; others are written
        # bare.  The empty corner cell, as pandas writes it, marks the
        # row-name column even when every row name is a number.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *col_names])
        writer.writerows(
            [name, *["%.17g" % v for v in row]]
            for name, row in zip(row_names, np.atleast_2d(values).tolist()))


def _names(names, argument: str, count: int, prefix: str) -> list[str]:
    """``names`` as a list of ``count``, or positional names for None."""
    if names is None:
        return [f"{prefix}_{k + 1}" for k in range(count)]
    names = list(names)
    if len(names) != count:
        raise ConfigError(
            f"{argument} has {len(names)} names, expected {count}")
    return names


def write_result(result: FitResult, out_dir, row_names=None, col_names=None,
                 config: dict | None = None) -> list[Path]:
    """Write the documented result file set into ``out_dir``.

    factors.csv (N x L), loadings.csv (J x L), coef_A.csv (J x K_o),
    coef_Gamma.csv (N x K_f, omitted when there are no feature
    covariates), offset.csv, trace.csv, and meta.json.  Positional names
    are generated when none are supplied; supplied names must number J
    (``row_names``) and N (``col_names``), else ConfigError is raised
    before any file is written.
    """
    n_obs, n_latent = result.factors.shape
    feat_names = _names(row_names, "row_names", result.loadings.shape[0],
                        "feat")
    obs_names = _names(col_names, "col_names", n_obs, "obs")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dims = [f"dim{k + 1}" for k in range(n_latent)]

    written = []

    def emit(name, values, rnames, cnames):
        target = out / name
        _write_csv(target, values, rnames, cnames)
        written.append(target)

    emit("factors.csv", result.factors, obs_names, dims)
    emit("loadings.csv", result.loadings, feat_names, dims)
    n_obs_cov = result.coef_A.shape[1]
    emit("coef_A.csv", result.coef_A, feat_names,
         [f"x{k + 1}" for k in range(n_obs_cov)])
    n_feat_cov = result.coef_Gamma.shape[1]
    if n_feat_cov:
        emit("coef_Gamma.csv", result.coef_Gamma, obs_names,
             [f"z{k + 1}" for k in range(n_feat_cov)])
    emit("offset.csv", result.offset[:, None], obs_names, ["offset"])

    trace_path = out / "trace.csv"
    with open(trace_path, "w", newline="\n") as fh:
        fh.write("iteration,Q\n")
        for iteration, q in result.trace:
            fh.write("%s,%.17g\n" % (iteration, q))
    written.append(trace_path)

    meta = {
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations_run": result.iterations_run,
        "final_q": result.final_q,
        "objective": "partial",  # data-only likelihood constant is dropped
        "warnings": list(result.warnings),
        "config": config or {},
    }
    meta_path = out / "meta.json"
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written
