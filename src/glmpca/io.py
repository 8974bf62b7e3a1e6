"""Matrix readers and result writers.

Two input formats: MatrixMarket coordinate files (read into a dense
array, absent entries zero) and CSV with features as rows and
observations as columns, where a header row and a leading row-name
column are auto-detected.  All numbers are written with 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError
from .optimizer import FitResult


@dataclass
class LoadedMatrix:
    """A parsed matrix, the format it was read as, and any name metadata
    found alongside it."""

    values: np.ndarray
    row_names: list[str] | None = None
    col_names: list[str] | None = None
    format: str | None = None  # "matrixmarket" or "csv" once read


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------------
# readers


def read_matrix_market(path) -> LoadedMatrix:
    """Parse a MatrixMarket coordinate file into a dense matrix."""
    path = Path(path)
    rows = cols = None
    remaining = 0
    values = None
    with open(path) as fh:
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
            if values is None:
                if len(tokens) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 'rows cols nnz' size line")
                try:
                    rows, cols, remaining = (int(t) for t in tokens)
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-integer size line {line!r}")
                if rows < 1 or cols < 1 or remaining < 0:
                    raise DataError(f"{path}:{lineno}: invalid sizes {line!r}")
                try:
                    values = np.zeros((rows, cols))
                except (ValueError, MemoryError):  # too big to address
                    raise DataError(
                        f"{path}:{lineno}: cannot hold a dense {rows} x "
                        f"{cols} matrix") from None
                continue
            if len(tokens) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 'row col value' entry")
            try:
                r, c = int(tokens[0]), int(tokens[1])
                v = float(tokens[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed entry {line!r}")
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise DataError(
                    f"{path}:{lineno}: entry ({r}, {c}) outside "
                    f"{rows} x {cols} matrix")
            values[r - 1, c - 1] += v
            remaining -= 1
    if values is None:
        raise DataError(f"{path}: missing size line")
    if remaining > 0:
        raise DataError(f"{path}: {remaining} entries missing at end of file")
    if remaining < 0:
        raise DataError(f"{path}: more entries than declared")
    return LoadedMatrix(values, format="matrixmarket")


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


def read_matrix(path, fmt: str | None = None) -> LoadedMatrix:
    """Read a matrix, inferring the format from the extension when
    ``fmt`` is None (.mtx/.mm are MatrixMarket, everything else CSV)."""
    path = Path(path)
    if fmt is None:
        fmt = "matrixmarket" if path.suffix.lower() in (".mtx", ".mm") \
            else "csv"
    if fmt == "matrixmarket":
        return read_matrix_market(path)
    if fmt == "csv":
        return read_csv_matrix(path)
    raise DataError(f"unknown input format {fmt!r}")


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
        for name, row in zip(row_names, np.atleast_2d(values)):
            writer.writerow([name, *(_fmt(v) for v in row)])


def write_result(result: FitResult, out_dir, row_names=None, col_names=None,
                 config: dict | None = None) -> list[Path]:
    """Write the documented result file set into ``out_dir``.

    factors.csv (N x L), loadings.csv (J x L), coef_A.csv (J x K_o),
    coef_Gamma.csv (N x K_f, omitted when there are no feature
    covariates), offset.csv, trace.csv, and meta.json.  Positional names
    are generated when none are supplied.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_obs, n_latent = result.factors.shape
    n_feat = result.loadings.shape[0]
    feat_names = list(row_names) if row_names else \
        [f"feat_{j + 1}" for j in range(n_feat)]
    obs_names = list(col_names) if col_names else \
        [f"obs_{i + 1}" for i in range(n_obs)]
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
            fh.write(f"{iteration},{_fmt(q)}\n")
    written.append(trace_path)

    meta = {
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "iterations_run": result.iterations_run,
        "final_q": result.final_q,
        "objective": "partial",  # data-only likelihood constant is dropped
        "postprocessed": result.postprocessed,
        "warnings": list(result.warnings),
        "config": config or {},
    }
    meta_path = out / "meta.json"
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written
