"""The chunked Bell-plane CSV writer against the per-row ``csv.writer`` loop.

The reference below is the writer the chunked one replaced; every case must
give the same bytes.
"""

import csv
import dataclasses

import numpy as np
import pytest

from sec_transfer import formats
from sec_transfer.qubits import PlaneScan, plane_scan


def reference_write(scan: PlaneScan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(formats.SCAN_CSV_HEADER)
        for i in range(len(scan)):
            writer.writerow(
                [
                    repr(float(scan.c_x[i])),
                    repr(float(scan.c_y[i])),
                    repr(float(scan.c_z[i])),
                    repr(float(scan.max_transfer[i])),
                    repr(float(scan.concurrence[i])),
                    "true" if scan.separable[i] else "false",
                ]
            )


def assert_same_bytes(scan: PlaneScan, tmp_path) -> bytes:
    expected, actual = tmp_path / "reference.csv", tmp_path / "chunked.csv"
    reference_write(scan, expected)
    formats.write_plane_scan_csv(scan, actual)
    assert actual.read_bytes() == expected.read_bytes()
    return actual.read_bytes()


def truncated(scan: PlaneScan, rows: int) -> PlaneScan:
    columns = ("c_x", "c_y", "c_z", "max_transfer", "concurrence", "separable")
    return PlaneScan(scan.resolution, *(getattr(scan, name)[:rows] for name in columns))


@pytest.mark.parametrize("resolution", [2, 3, 4, 51, 201])
def test_plane_scan_csv_matches_the_row_loop(resolution, tmp_path):
    assert_same_bytes(plane_scan(resolution), tmp_path)


@pytest.mark.parametrize(
    "chunk, remainder", [(520, 0), (693, 1)], ids=["exact-multiple", "multiple-plus-one"]
)
def test_row_count_at_a_chunk_boundary(chunk, remainder, tmp_path, monkeypatch):
    scan = plane_scan(64)
    assert len(scan) % chunk == remainder and len(scan) // chunk > 1
    monkeypatch.setattr(formats, "SCAN_CSV_CHUNK", chunk)
    assert_same_bytes(scan, tmp_path)


@pytest.mark.parametrize("extra", [0, 1], ids=["exact-multiple", "multiple-plus-one"])
def test_default_chunk_boundary(extra, tmp_path):
    rows = 2 * formats.SCAN_CSV_CHUNK + extra
    scan = plane_scan(201)
    assert len(scan) > rows
    assert_same_bytes(truncated(scan, rows), tmp_path)


def test_signed_zeros_and_mixed_values_keep_their_own_text(tmp_path):
    c_x = np.array([0.0, -0.0, 0.5, 0.0, -0.0, 1e-300, 5e-324, 0.1 + 0.2])
    scan = PlaneScan(
        resolution=0,
        c_x=c_x,
        c_y=np.array([-0.0, 0.0, 0.25, 0.25, 1e22, -1e22, 0.3, 0.1]),
        c_z=np.array([-1.0, 1.0, -1.0, 2.0 / 3.0, -0.0, 0.0, 123456789.0, -0.5]),
        max_transfer=np.array([np.nan, 0.5, 0.5, np.inf, -np.inf, 0.5, 0.125, 0.5]),
        concurrence=np.array([0.0, 0.0, 0.0, -0.0, 0.7, 0.7, 0.7, 1.0 / 3.0]),
        separable=np.array([True, True, False, True, False, False, False, True]),
    )
    text = assert_same_bytes(scan, tmp_path).decode("utf-8")
    rows = text.split("\r\n")
    assert rows[1].split(",")[:2] == ["0.0", "-0.0"]
    assert rows[2].split(",")[:2] == ["-0.0", "0.0"]


def test_a_c_y_of_its_own_writes_its_own_column(tmp_path):
    # plane_scan shares one buffer between c_x and c_y, which the writer formats once
    scan = plane_scan(51)
    assert scan.c_y is scan.c_x
    own = dataclasses.replace(scan, c_y=scan.c_x[::-1].copy())
    assert not np.array_equal(own.c_y, own.c_x)
    assert_same_bytes(own, tmp_path)


def test_empty_scan_writes_only_the_header(tmp_path):
    empty = np.array([], dtype=float)
    scan = PlaneScan(0, empty, empty, empty, empty, empty, np.array([], dtype=bool))
    text = assert_same_bytes(scan, tmp_path)
    assert text == (",".join(formats.SCAN_CSV_HEADER) + "\r\n").encode("utf-8")
