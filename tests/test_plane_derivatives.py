"""The Bell-plane derivatives against the per-row dictionary loops they replace.

``_gradient_loop`` and ``_directional_loop`` are the earlier bodies of
``plane_scan_gradient`` and ``concurrence_directional_derivative``, kept here
as the reference: the shared neighbour lookup must give the same values,
dtypes, shapes and row order.
"""

import math

import numpy as np
import pytest

from sec_transfer import (
    PlaneScan,
    concurrence_directional_derivative,
    plane_scan,
    plane_scan_gradient,
)


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


def _patch_scan(resolution, x_indices, z_indices):
    """A hand-built scan of the grid points ``x_indices`` x ``z_indices``, rows sorted.

    Every row has its own transfer value, so a wrong neighbour changes a rate.
    """
    ix, iz = (grid.ravel().astype(np.int32) for grid in np.meshgrid(
        np.array(x_indices), np.array(z_indices), indexing="ij"))
    c_x = ix / (resolution - 1)
    c_z = -1.0 + 2.0 * iz / (resolution - 1)
    rows = len(ix)
    return PlaneScan(
        resolution=resolution, c_x=c_x, c_y=c_x, c_z=c_z,
        max_transfer=np.arange(rows, dtype=float) ** 2,
        concurrence=np.full(rows, 0.5), separable=np.zeros(rows, dtype=bool),
        x_index=ix, z_index=iz,
    )


def test_neighbours_past_the_int32_key_range():
    """At resolution 50,000 a key ix * res + iz passes 2**31 - 1; neighbours stay right.

    The patch holds columns on both sides of the wrap (ix * 50,000 passes
    2**31 from ix = 42,950 on), so keys formed in int32 would lose their order.
    """
    res = 50_000
    scan = _patch_scan(res, [0, 1, 2, 42_948, 42_949, 42_950, 49_997, 49_998, 49_999],
                       range(49_995, 50_000))
    assert int(scan.x_index.max()) * res + int(scan.z_index.max()) > 2**31 - 1
    gradient, directional = plane_scan_gradient(scan), concurrence_directional_derivative(scan)
    expected_gradient, expected_directional = _gradient_loop(scan), _directional_loop(scan)
    assert len(expected_gradient["rows"]) == 24 and len(expected_directional["rows"]) == 12
    _assert_same(gradient, expected_gradient)
    _assert_same(directional, expected_directional)
