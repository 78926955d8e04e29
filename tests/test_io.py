"""CSV/idx ingestion and deterministic report serialization."""
import gzip
import json
import os
import stat
import struct
import warnings

import numpy as np
import pytest

from lossdepth.core import ValidationError
from lossdepth.io import (
    ExperimentReport,
    ReportTable,
    format_float,
    read_csv,
    read_idx,
    report_to_json,
    table_to_csv,
    write_report,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_read_csv_plain_numeric(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n3.5,-4\n")
    data = read_csv(p)
    assert data.n == 2 and data.d == 2
    assert data.labels is None
    assert np.array_equal(data.features, [[1.0, 2.0], [3.5, -4.0]])


def test_read_csv_skips_blank_rows(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n\n ,  \n3,4\n")
    data = read_csv(p)
    assert data.n == 2


def test_read_csv_header_and_named_label(tmp_path):
    p = _write(tmp_path / "a.csv", "x,y,lab\n1,2,0\n3,4,1\n")
    data = read_csv(p, has_header=True, label_column="lab")
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    assert data.labels.dtype == np.int64
    assert np.array_equal(data.labels, [0, 1])


def test_read_csv_label_by_position(tmp_path):
    p = _write(tmp_path / "a.csv", "0,1,2\n1,3,4\n")
    data = read_csv(p, label_column=0)
    assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(data.labels, [0, 1])


def test_read_csv_named_label_requires_header(tmp_path):
    p = _write(tmp_path / "a.csv", "1,0\n")
    with pytest.raises(ValidationError, match="header"):
        read_csv(p, label_column="lab")


def test_read_csv_unknown_label_name(tmp_path):
    p = _write(tmp_path / "a.csv", "x,y\n1,2\n")
    with pytest.raises(ValidationError, match="no column named"):
        read_csv(p, has_header=True, label_column="lab")


def test_read_csv_label_index_out_of_range(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n")
    with pytest.raises(ValidationError, match="out of range"):
        read_csv(p, label_column=5)


def test_read_csv_ragged_row_cites_line(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n3,4,5\n")
    with pytest.raises(ValidationError, match="line 2 has 3 fields, expected 2"):
        read_csv(p)


def test_read_csv_non_numeric_cites_line_and_column(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n3,oops\n")
    with pytest.raises(ValidationError, match="'oops' at line 2, column 2"):
        read_csv(p)


def test_read_csv_labels_must_be_binary(tmp_path):
    p = _write(tmp_path / "a.csv", "1,2\n3,4\n")
    with pytest.raises(ValidationError, match=r"only 0 and 1; row at line 1 has 2\.0$"):
        read_csv(p, label_column=1)


def test_read_csv_label_needs_a_feature_column(tmp_path):
    p = _write(tmp_path / "a.csv", "0\n1\n")
    with pytest.raises(ValidationError, match="no feature columns"):
        read_csv(p, label_column=0)


def test_read_csv_header_width_mismatch(tmp_path):
    p = _write(tmp_path / "a.csv", "a,b,c\n1,2\n")
    with pytest.raises(ValidationError, match="header has 3 fields"):
        read_csv(p, has_header=True)


def test_read_csv_empty_file(tmp_path):
    # empty, blank-only and header-only files; a warning would surface as an error
    for text, has_header in (("", False), ("\n\n", False), (" , \n\t\n", False),
                             ("a,b\n", True), ("a,b\n\n , \n", True)):
        p = _write(tmp_path / "a.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no data rows"):
                read_csv(p, has_header=has_header)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
    lines = "\n".join(",".join(format_float(v) for v in row) for row in original)
    p = _write(tmp_path / "a.csv", lines + "\n")
    back = read_csv(p)
    assert np.array_equal(back.features, original)


def test_read_csv_converts_regular_files_without_the_cell_loop(tmp_path, monkeypatch):
    from lossdepth import io

    monkeypatch.setattr(io, "_read_cells", lambda *args: pytest.fail("cell loop used"))
    p = tmp_path / "a.csv"
    p.write_bytes('x,"lab" ,y\r\n\r\n"1.5", 1 ,\u00a0-2e3\r\n+.5,0,nan'.encode())
    data = read_csv(p, has_header=True, label_column="lab")
    assert np.array_equal(data.features, [[1.5, -2000.0], [0.5, np.nan]], equal_nan=True)
    assert data.labels.tolist() == [1, 0]


def test_read_csv_drops_a_byte_order_mark(tmp_path):
    from lossdepth import io

    p = tmp_path / "a.csv"
    p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    for read in (io.read_csv, io._read_cells):
        assert np.array_equal(read(p, False, None).features, [[1.0, 2.0], [3.0, 4.0]])
    p.write_bytes(b"\xef\xbb\xbflab,x\n0,1.5\n1,2\n")
    data = read_csv(p, has_header=True, label_column="lab")
    assert np.array_equal(data.features, [[1.5], [2.0]])
    assert data.labels.tolist() == [0, 1]


def test_read_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "a.csv"
    p.write_bytes(b"1,2\n\xff,4\n")
    with pytest.raises(ValidationError, match=f"^{p}: not UTF-8 text"):
        read_csv(p)


def _images_bytes(pixels, rows=2, cols=2):
    count = len(pixels) // (rows * cols)
    return struct.pack(">IIII", 2051, count, rows, cols) + bytes(pixels)


def _labels_bytes(labels):
    return struct.pack(">II", 2049, len(labels)) + bytes(labels)


def test_read_idx_scales_pixels(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(_images_bytes([0, 51, 102, 255, 10, 20, 30, 40]))
    data = read_idx(p)
    assert data.features.shape == (2, 4)
    assert data.labels is None
    assert data.features[0, 0] == 0.0
    assert data.features[0, 3] == 1.0  # 255 maps to exactly one
    assert data.features[0, 1] == pytest.approx(51 / 255.0, rel=1e-15)


def test_read_idx_with_labels_and_filters(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(_images_bytes(list(range(12)), rows=2, cols=2))
    lab.write_bytes(_labels_bytes([3, 7, 3]))
    data = read_idx(img, lab)
    assert np.array_equal(data.labels, [3, 7, 3])

    only7 = read_idx(img, lab, keep_classes=(7,))
    assert only7.n == 1
    assert np.array_equal(only7.features[0], np.arange(4, 8) / 255.0)

    first = read_idx(img, lab, keep_classes=(3,), limit=1)
    assert first.n == 1
    assert np.array_equal(first.labels, [3])


def test_read_idx_gzip_by_suffix(tmp_path):
    plain = tmp_path / "img.idx"
    packed = tmp_path / "img.idx.gz"
    payload = _images_bytes([0, 1, 2, 3])
    plain.write_bytes(payload)
    with gzip.open(packed, "wb") as handle:
        handle.write(payload)
    a = read_idx(plain)
    b = read_idx(packed)
    assert np.array_equal(a.features, b.features)


def test_read_idx_bad_magic(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + bytes(4))
    with pytest.raises(ValidationError, match="bad magic 1234"):
        read_idx(p)


def test_read_idx_truncated_pixels(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(5))
    with pytest.raises(ValidationError):
        read_idx(p)


def test_read_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(_images_bytes([0, 0, 0, 0]))
    lab.write_bytes(_labels_bytes([1, 2, 3]))
    with pytest.raises(ValidationError, match="3 entries, image file has 1"):
        read_idx(img, lab)


def test_read_idx_keep_classes_needs_labels(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(_images_bytes([0, 0, 0, 0]))
    with pytest.raises(ValidationError, match="label file"):
        read_idx(p, keep_classes=(1,))


def test_read_idx_negative_limit(tmp_path):
    p = tmp_path / "img.idx"
    p.write_bytes(_images_bytes([0, 0, 0, 0]))
    with pytest.raises(ValidationError, match="limit"):
        read_idx(p, limit=-1)


def test_format_float_round_trips_exactly():
    for value in (0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5e17, 0.0):
        assert float(format_float(value)) == value
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"


def test_table_to_csv_cell_conventions():
    table = ReportTable("main", ("n", "ok", "err", "note"),
                        [(3, True, 0.1, "x"), (4, False, None, "")])
    expected = "n,ok,err,note\n3,true,0.10000000000000001,x\n4,false,,\n"
    assert table_to_csv(table) == expected


def test_table_rejects_unserialisable_cell():
    table = ReportTable("main", ("a",), [(object(),)])
    with pytest.raises(ValidationError, match="cannot serialise"):
        table_to_csv(table)


def test_report_table_validation():
    with pytest.raises(ValidationError):
        ReportTable("", ("a",))
    with pytest.raises(ValidationError):
        ReportTable("has space", ("a",))
    with pytest.raises(ValidationError):
        ReportTable("ok", ())
    with pytest.raises(ValidationError, match="expects 2 cells"):
        ReportTable("ok-1_b", ("a", "b"), [(1,)])


def test_report_table_refuses_ragged_rows():
    # before, rows given to the constructor skipped the width check and
    # table_to_csv wrote "a,b\n1\n1,2,3\n"
    with pytest.raises(ValidationError, match="expects 2 cells, got 1"):
        ReportTable("t", ("a", "b"), rows=[(1,), (1, 2, 3)])
    with pytest.raises(ValidationError, match="expects 2 cells, got 3"):
        ReportTable("t", ("a", "b"), rows=[(1, 2), (1, 2, 3)])


def test_experiment_report_requires_seed():
    with pytest.raises(ValidationError, match="seed"):
        ExperimentReport("run", {"lam": 1.0})
    report = ExperimentReport("run", {"seed": 7})
    assert report.config["seed"] == 7


def test_experiment_report_duplicate_table_names():
    tables = [ReportTable("t", ("a",)), ReportTable("t", ("a",))]
    with pytest.raises(ValidationError, match="duplicate"):
        ExperimentReport("run", {"seed": 0}, tables)


def test_experiment_report_table_lookup():
    table = ReportTable("depths", ("v",))
    report = ExperimentReport("run", {"seed": 0}, [table])
    assert report.table("depths") is table
    with pytest.raises(ValidationError, match="no table named"):
        report.table("missing")


def _sample_report():
    first = ReportTable("depths", ("i", "value"), [(0, 0.25), (1, 0.5)])
    second = ReportTable("meta", ("key", "val"), [("n", 2)])
    return ExperimentReport("demo", {"seed": 7, "lam": 1.0}, [first, second])


def test_write_report_csv_sibling_files(tmp_path):
    report = _sample_report()
    target = tmp_path / "out.csv"
    written = write_report(report, target, fmt="csv")
    assert written == [str(target), str(tmp_path / "out.meta.csv")]
    assert target.read_text() == "i,value\n0,0.25\n1,0.5\n"
    assert (tmp_path / "out.meta.csv").read_text() == "key,val\nn,2\n"


def test_write_report_csv_without_extension(tmp_path):
    report = _sample_report()
    target = tmp_path / "out"
    written = write_report(report, target, fmt="csv")
    assert written == [str(target), str(tmp_path / "out.meta.csv")]


def test_write_report_json_single_file(tmp_path):
    report = _sample_report()
    target = tmp_path / "out.json"
    written = write_report(report, target, fmt="json")
    assert written == [str(target)]
    payload = json.loads(target.read_text())
    assert payload["name"] == "demo"
    assert payload["config"] == {"seed": 7, "lam": 1.0}
    assert payload["tables"][0] == {
        "name": "depths", "columns": ["i", "value"], "rows": [[0, 0.25], [1, 0.5]]
    }


def test_write_report_byte_identical_and_no_temp_leftovers(tmp_path):
    report = _sample_report()
    target = tmp_path / "out.json"
    write_report(report, target, fmt="json")
    first = target.read_bytes()
    write_report(report, target, fmt="json")
    assert target.read_bytes() == first
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".report-")]
    assert leftovers == []


def test_write_report_gives_files_the_mode_of_a_plain_open(tmp_path):
    report = _sample_report()
    previous = os.umask(0o022)
    try:
        for mask in (0o022, 0o077, 0o002):
            os.umask(mask)
            written = write_report(report, tmp_path / f"out{mask:o}.csv", fmt="csv")
            written += write_report(report, tmp_path / f"out{mask:o}.json", fmt="json")
            for path in written:
                assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~mask, path
    finally:
        os.umask(previous)


def test_write_report_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # setting the umask, even to read it, changes the mode of files that other
    # threads create meanwhile
    def no_umask(mask):
        raise AssertionError("write_report set the process umask")

    report = _sample_report()
    mask = os.umask(0o022)
    os.umask(mask)
    monkeypatch.setattr(os, "umask", no_umask)
    written = write_report(report, tmp_path / "out.csv", fmt="csv")
    written += write_report(report, tmp_path / "out.json", fmt="json")
    for path in written:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~mask, path


def test_write_report_validation(tmp_path):
    report = _sample_report()
    with pytest.raises(ValidationError, match="unknown report format"):
        write_report(report, tmp_path / "x", fmt="yaml")
    with pytest.raises(ValidationError, match="no tables"):
        write_report(ExperimentReport("run", {"seed": 0}), tmp_path / "x")


def test_report_json_handles_numpy_scalars():
    table = ReportTable("t", ("a", "b"), [(np.int64(3), np.float64(0.5))])
    report = ExperimentReport("run", {"seed": np.int64(1)}, [table])
    text = report_to_json(report)
    assert json.loads(text)["tables"][0]["rows"] == [[3, 0.5]]
    assert text.endswith("}\n")


def test_report_json_rejects_non_finite():
    table = ReportTable("t", ("a",), [(float("nan"),)])
    report = ExperimentReport("run", {"seed": 0}, [table])
    with pytest.raises(ValidationError, match="non-finite"):
        report_to_json(report)
