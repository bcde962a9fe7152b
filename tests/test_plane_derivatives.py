"""The Bell-plane derivatives against the per-row dictionary loops they replace.

``_gradient_loop`` and ``_directional_loop`` are the earlier bodies of
``plane_scan_gradient`` and ``concurrence_directional_derivative``, kept here
as the reference: the shared neighbour lookup must give the same values,
dtypes, shapes and row order.
"""

import math

import numpy as np
import pytest

from sec_transfer import concurrence_directional_derivative, plane_scan, plane_scan_gradient


def _position(scan):
    return {
        (int(ix), int(iz)): row
        for row, (ix, iz) in enumerate(zip(scan.x_index, scan.z_index))
    }


def _gradient_loop(scan):
    res = scan.resolution
    step_x = 1.0 / (res - 1)
    step_z = 2.0 / (res - 1)
    position = _position(scan)
    rows, vectors = [], []
    for row, (ix, iz) in enumerate(zip(scan.x_index, scan.z_index)):
        east = position.get((ix + 1, iz))
        north = position.get((ix, iz + 1))
        if east is None or north is None:
            continue
        rate_x = (scan.max_transfer[east] - scan.max_transfer[row]) / step_x
        rate_z = (scan.max_transfer[north] - scan.max_transfer[row]) / step_z
        rows.append(row)
        vectors.append((rate_x, rate_x, rate_z))
    return {"rows": np.array(rows, dtype=int), "gradients": np.array(vectors)}


def _directional_loop(scan):
    res = scan.resolution
    step = 2.0 / (res - 1)
    position = _position(scan)
    rows, rates = [], []
    for row, (ix, iz) in enumerate(zip(scan.x_index, scan.z_index)):
        other = position.get((ix + 2, iz - 1))
        if other is None:
            continue
        if scan.concurrence[row] <= 0.0 or scan.concurrence[other] <= 0.0:
            continue
        arclength = step * math.sqrt(3.0)
        rates.append((scan.max_transfer[other] - scan.max_transfer[row]) / arclength)
        rows.append(row)
    return {"rows": np.array(rows, dtype=int), "rates": np.array(rates)}


def _assert_same(got, expected):
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        assert got[key].shape == expected[key].shape, key
        np.testing.assert_array_equal(got[key], expected[key])


@pytest.mark.parametrize("resolution", [2, 3, 4, 41, 201])
def test_gradient_matches_row_loop(resolution):
    scan = plane_scan(resolution)
    _assert_same(plane_scan_gradient(scan), _gradient_loop(scan))


@pytest.mark.parametrize("resolution", [2, 3, 4, 41, 201])
def test_directional_derivative_matches_row_loop(resolution):
    scan = plane_scan(resolution)
    _assert_same(concurrence_directional_derivative(scan), _directional_loop(scan))
