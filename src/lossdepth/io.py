"""File ingestion and report serialisation.

CSV reading is strict: ragged rows and non-numeric cells fail with the file
line and column in the message rather than silently dropping data.  A
regular file is converted by numpy's tokenizer in one pass, without a Python
object per cell; anything it rejects is read again cell by cell, which gives
the same values and names the fault.  Only this module knows the csv and
json report layouts, and one function writes every cell of both: floats with
17 significant digits, which round-trips the binary value exactly, numpy
scalars as their Python values.  Files land atomically via a rename, with
the mode a plain open() would give them, so readers never observe a
half-written report.
"""
from __future__ import annotations

import csv
import gzip
import json
import os
import struct
import warnings
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .core import ValidationError

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature rows plus optional integer labels."""

    features: np.ndarray
    labels: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def read_csv(path, has_header: bool = False, label_column=None) -> LabeledDataset:
    """Load a numeric CSV, optionally splitting off a 0/1 label column.

    label_column may be a 0-based position or, when has_header is set, a
    column name.  Labels must be integral zeros and ones; every other cell
    must parse as a float.  Rows whose width differs from the first data row
    are rejected.

    The file is read as UTF-8, and a leading byte-order mark is dropped, so
    the result does not depend on the locale; other bytes fail validation.
    The rows after the header are converted by one numpy tokenizer pass.
    When that pass meets anything irregular (no data rows, a ragged or
    all-blank row, a cell that is not an ASCII float such as 1_0, a label that
    is not 0 or 1) the file is read again by the cell loop, which skips blank
    rows, converts each cell with float, or names the faulty line and column.
    """
    if isinstance(label_column, str) and not has_header:
        raise ValidationError("selecting the label column by name requires a header row")
    try:
        bulk = _read_bulk(path, has_header)
        if bulk is not None:
            header, values = bulk
            dataset = _dataset(values, _label_index(path, header, values.shape[1], label_column))
            if dataset is not None:
                return dataset
        return _read_cells(path, has_header, label_column)
    except UnicodeDecodeError as error:
        raise ValidationError(f"{path}: not UTF-8 text ({error.reason})") from None


def _read_bulk(path, has_header: bool):
    """(header, values) from one numpy tokenizer pass, or None when the header
    row is blank or the tokenizer rejects the rest: no data rows, a ragged or
    blank row, or a cell that is not an ASCII float."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        header = None
        if has_header:
            row = next((row for row in csv.reader(handle) if row), [])
            header = [c.strip() for c in row]
            if not any(header):
                return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                values = np.loadtxt(
                    handle, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=float
                )
        except ValueError:
            return None
    if not values.size:
        return None
    return header, values


def _read_cells(path, has_header: bool, label_column) -> LabeledDataset:
    """The cell-by-cell reader: skips all-blank rows and raises with the file
    line (and column) of the first fault."""
    header = None
    cells: list = []
    lines: list = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if has_header and header is None:
                header = [c.strip() for c in row]
                continue
            cells.append([c.strip() for c in row])
            lines.append(reader.line_num)
    if not cells:
        raise ValidationError(f"{path}: no data rows")
    width = len(cells[0])
    for row, line in zip(cells, lines):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row at line {line} has {len(row)} fields, expected {width}"
            )
    label_index = _label_index(path, header, width, label_column)

    values = np.empty((len(cells), width))
    for i, (row, line) in enumerate(zip(cells, lines)):
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: non-numeric value {cell!r} at line {line}, column {j + 1}"
                ) from None

    dataset = _dataset(values, label_index)
    if dataset is None:
        raw = values[:, label_index]
        bad = int(np.flatnonzero(~np.isin(raw, (0.0, 1.0)))[0])
        raise ValidationError(
            f"{path}: label column must contain only 0 and 1; "
            f"row at line {lines[bad]} has {float(raw[bad])!r}"
        )
    return dataset


def _label_index(path, header, width: int, label_column):
    """Check the header against the data width and resolve label_column to a
    position, or None when there is no label column."""
    if header is not None and len(header) != width:
        raise ValidationError(
            f"{path}: header has {len(header)} fields, data rows have {width}"
        )
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if label_column not in header:
            raise ValidationError(
                f"{path}: no column named {label_column!r}; have {header}"
            )
        label_index = header.index(label_column)
    else:
        label_index = int(label_column)
        if not 0 <= label_index < width:
            raise ValidationError(
                f"{path}: label column {label_index} out of range for width {width}"
            )
    if width < 2:
        raise ValidationError(f"{path}: no feature columns besides the label")
    return label_index


def _dataset(values: np.ndarray, label_index) -> LabeledDataset | None:
    """Split off the label column; None when a label is not 0 or 1."""
    if label_index is None:
        return LabeledDataset(features=values)
    raw = values[:, label_index]
    if not np.all(np.isin(raw, (0.0, 1.0))):
        return None
    features = np.delete(values, label_index, axis=1)
    return LabeledDataset(features=features, labels=raw.astype(np.int64))


def _open_binary(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(handle, count: int, path, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise ValidationError(f"{path}: file ends before the {what}")
    return data


def read_idx(images_path, labels_path=None, keep_classes=None, limit=None) -> LabeledDataset:
    """Load big-endian idx image (and optional label) files, gzipped or not.

    Pixels are flattened row-major and scaled to [0, 1].  keep_classes
    restricts rows to the listed labels, then limit keeps the first rows in
    file order.
    """
    if keep_classes is not None and labels_path is None:
        raise ValidationError("filtering by class requires a label file")
    with _open_binary(images_path) as handle:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(handle, 16, images_path, "image header"))
        if magic != IMAGES_MAGIC:
            raise ValidationError(
                f"{images_path}: bad magic {magic}, expected {IMAGES_MAGIC} for image data"
            )
        raw = _read_exact(handle, count * rows * cols, images_path, "pixel data")
    features = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(count, rows * cols)

    labels = None
    if labels_path is not None:
        with _open_binary(labels_path) as handle:
            magic, label_count = struct.unpack(">II", _read_exact(handle, 8, labels_path, "label header"))
            if magic != LABELS_MAGIC:
                raise ValidationError(
                    f"{labels_path}: bad magic {magic}, expected {LABELS_MAGIC} for label data"
                )
            raw = _read_exact(handle, label_count, labels_path, "label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if label_count != count:
            raise ValidationError(
                f"label file has {label_count} entries, image file has {count}"
            )

    if keep_classes is not None:
        wanted = np.isin(labels, np.asarray(list(keep_classes)))
        features = features[wanted]
        labels = labels[wanted]
    if limit is not None:
        if limit < 0:
            raise ValidationError("limit must be >= 0")
        features = features[:limit]
        if labels is not None:
            labels = labels[:limit]
    return LabeledDataset(features=features, labels=labels)


def format_float(value: float) -> str:
    """17 significant digits: enough to reconstruct the exact float64."""
    return format(float(value), ".17g")


@dataclass(eq=False)
class ReportTable:
    """Named columns and the rows given when the table is built."""
    name: str
    columns: tuple
    rows: list = field(default_factory=list)

    def __post_init__(self):
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise ValidationError(
                f"table name {self.name!r} must be non-empty alphanumeric/underscore/dash"
            )
        self.columns = tuple(str(c) for c in self.columns)
        if not self.columns:
            raise ValidationError(f"table {self.name!r} needs at least one column")
        self.rows = list(self.rows)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValidationError(
                    f"table {self.name!r} expects {len(self.columns)} cells, got {len(row)}"
                )


@dataclass(eq=False)
class ExperimentReport:
    """Named tables plus the configuration that produced them.

    The configuration must record the seed; without it a report cannot be
    reproduced and comparisons across runs are meaningless.
    """

    name: str
    config: dict
    tables: list = field(default_factory=list)

    def __post_init__(self):
        if "seed" not in self.config:
            raise ValidationError("report config must include the seed")
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate table names in report: {names}")

    def table(self, name: str) -> ReportTable:
        for t in self.tables:
            if t.name == name:
                return t
        raise ValidationError(f"report has no table named {name!r}")


def _atomic_write_text(path: str, text: str) -> None:
    """Write text to a fresh file of random name next to path, then rename it
    onto path.  The file is created with mode 0o666 and the kernel applies
    the umask, so it gets the mode a plain open() would give it."""
    temp = os.path.join(os.path.dirname(os.path.abspath(path)), f".report-{os.urandom(8).hex()}")
    created = False
    try:
        handle = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(handle, "w", newline="") as out:
            out.write(text)
        os.replace(temp, path)
    except BaseException as error:
        if created and os.path.exists(temp):
            os.unlink(temp)
        if isinstance(error, OSError):  # name the report, not the random temporary file
            raise OSError(error.errno, error.strerror, path) from None
        raise


def _cell_text(value) -> str:
    """A float's 17 significant digits, true or false, an integer's digits,
    empty for None, or a string as is.  Exact types are matched first; a numpy
    scalar is written as its Python value, and a longdouble, with none, refused."""
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if isinstance(value, np.generic) and not isinstance(item := value.item(), np.generic):
        return _cell_text(item)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format_float(value)
    raise ValidationError(f"cannot serialise a cell of type {type(value).__name__}")


def table_to_csv(table: ReportTable) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows([_cell_text(c) for c in row] for row in table.rows)
    return buffer.getvalue()


def _json_text(value, pieces: list, level: int) -> None:
    pad = "  " * (level + 1)
    if value is None:
        pieces.append("null")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValidationError("json object keys must be strings")
            pieces.append(pad + json.dumps(key) + ": ")
            _json_text(item, pieces, level + 1)
            pieces.append(",\n" if i + 1 < len(value) else "\n")
        pieces.append("  " * level + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(items):
            pieces.append(pad)
            _json_text(item, pieces, level + 1)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append("  " * level + "]")
    else:
        text = _cell_text(value)
        if text in ("nan", "inf", "-inf"):
            raise ValidationError("json reports cannot hold non-finite numbers")
        pieces.append(text)


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "name": report.name,
        "config": report.config,
        "tables": [
            {"name": t.name, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for t in report.tables
        ],
    }
    pieces: list = []
    _json_text(payload, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def render_report(report: ExperimentReport, fmt: str) -> list:
    """The report as (name, text) pieces: the json document, config included,
    named after the report, or one csv text per table, named after the table."""
    if fmt == "json":
        return [(report.name, report_to_json(report))]
    if fmt != "csv":
        raise ValidationError(f"unknown report format {fmt!r}")
    return [(table.name, table_to_csv(table)) for table in report.tables]


def write_report(report: ExperimentReport, path, fmt: str = "csv") -> list:
    """Serialise the report and return the paths written.

    The first piece of render_report lands at the given path and each further
    csv table at a sibling file with its name spliced in before the extension.
    """
    if not report.tables:
        raise ValidationError("report has no tables to write")
    path = str(path)
    base, ext = os.path.splitext(path)
    written = []
    for i, (name, text) in enumerate(render_report(report, fmt)):
        target = path if i == 0 else f"{base}.{name}{ext or '.csv'}"
        _atomic_write_text(target, text)
        written.append(target)
    return written
