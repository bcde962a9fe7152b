import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sec_transfer import (
    BellDiagParams,
    BipartiteState,
    NotTwoQubit,
    SecParams2Q,
    TwoQubitParams,
    Unphysical,
    ValidationError,
    bell_correlations,
    bell_diagonal_state,
    concurrence_bell_diagonal,
    concurrence_directional_derivative,
    concurrence_wootters,
    delta_coh_2q,
    delta_diag_2q,
    max_transfer_2q,
    maximize_transfer_exact,
    plane_scan,
    plane_scan_gradient,
    transfer_direct,
    two_qubit_spectrum,
)
from sec_transfer.fixtures import ladder_spectrum


def random_params(rng, real_alpha=False):
    probs = rng.dirichlet(np.ones(4))
    amax = np.sqrt(probs[1] * probs[2])
    if real_alpha:
        alpha = complex(rng.uniform(-1, 1) * amax)
    else:
        alpha = rng.uniform(-0.7, 0.7) * amax + 1j * rng.uniform(-0.7, 0.7) * amax
    return TwoQubitParams(probs[0], probs[1], probs[2], probs[3], alpha)


def test_params_validation():
    with pytest.raises(ValidationError, match="sum to 1"):
        TwoQubitParams(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match="coherence too large"):
        TwoQubitParams(0.25, 0.25, 0.25, 0.25, alpha=0.3)


def test_params_state_roundtrip(rng):
    params = random_params(rng)
    back = TwoQubitParams.from_state(params.to_state())
    assert back.p01 == pytest.approx(params.p01, abs=1e-15)
    assert back.alpha == pytest.approx(params.alpha, abs=1e-15)


def test_delta_diag_examples():
    params = TwoQubitParams(0.35, 0.3, 0.1, 0.25)
    assert delta_diag_2q(params, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert delta_diag_2q(params, 0.0) == 0.0
    balanced = TwoQubitParams(0.25, 0.2, 0.2, 0.35)
    for r in (0.1, 0.5, 1.0):
        assert delta_diag_2q(balanced, r) == 0.0


def test_delta_coh_examples():
    half = TwoQubitParams(0.0, 0.5, 0.5, 0.0, alpha=0.5)
    assert delta_coh_2q(half, 1.0, 0.0) == 0.0
    assert delta_coh_2q(half, 2**-0.5, 0.0) == pytest.approx(0.5, abs=1e-15)
    imag = TwoQubitParams(0.0, 0.5, 0.5, 0.0, alpha=0.4j)
    assert delta_coh_2q(imag, 0.6, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_closed_forms_match_dense_evolution():
    # oracle: dense evolution through the generic machinery, 1000 draws
    rng = np.random.default_rng(314159)
    spec = two_qubit_spectrum()
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        r = rng.uniform(0, 1)
        phi = rng.uniform(0, 2 * np.pi)
        thetas = tuple(rng.uniform(0, 2 * np.pi, size=4))
        u = SecParams2Q(r=r, phi=phi, thetas=thetas).to_sec_unitary(spec)
        predicted = delta_diag_2q(params, r) + delta_coh_2q(params, r, phi)
        worst = max(worst, abs(predicted - transfer_direct(params.to_state(), u, "A")))
    assert worst <= 1e-12


def test_singleton_phases_never_matter(rng):
    spec = two_qubit_spectrum()
    params = random_params(rng)
    state = params.to_state()
    reference = None
    for t00 in (0.0, 1.0, 4.0):
        for t11 in (0.0, 2.5):
            u = SecParams2Q(r=0.6, phi=0.9, thetas=(t00, 0.3, 1.2, t11)).to_sec_unitary(spec)
            value = transfer_direct(state, u, "A")
            if reference is None:
                reference = value
            assert value == pytest.approx(reference, abs=1e-14)


def test_rotation_phases_only_enter_effective_phi(rng):
    # sweeping t01/t10 with phi held fixed cannot change any transfer
    spec = two_qubit_spectrum()
    params = random_params(rng)
    state = params.to_state()
    reference = None
    for t01 in (0.0, 0.8, 2.2):
        for t10 in (0.0, 1.7):
            u = SecParams2Q(r=0.4, phi=1.1, thetas=(0.0, t01, t10, 0.0)).to_sec_unitary(spec)
            value = transfer_direct(state, u, "A")
            if reference is None:
                reference = value
            assert value == pytest.approx(reference, abs=1e-14)


def test_max_transfer_free_alpha_fixture():
    params = TwoQubitParams(0.3, 0.3, 0.1, 0.3)
    optimum = max_transfer_2q(params, "A")
    assert optimum.value == pytest.approx(0.3, abs=1e-15)
    assert optimum.r_star**2 == pytest.approx(0.75, abs=1e-15)
    assert optimum.phi_star == 0.0
    assert optimum.alpha_star == pytest.approx(np.sqrt(0.03), abs=1e-15)
    optimum_b = max_transfer_2q(params, "B")
    assert optimum_b.value == pytest.approx(0.1, abs=1e-15)
    assert optimum_b.r_star**2 == pytest.approx(0.25, abs=1e-15)


def test_max_transfer_symmetric_populations():
    for p in (0.1, 0.2, 0.25):
        params = TwoQubitParams(0.5 - p, p, p, 0.5 - p)
        assert max_transfer_2q(params, "A").value == pytest.approx(p, abs=1e-15)
        assert max_transfer_2q(params, "A").r_star**2 == pytest.approx(0.5, abs=1e-15)


def test_max_transfer_fixed_zero_alpha():
    params = TwoQubitParams(0.35, 0.3, 0.1, 0.25)
    optimum = max_transfer_2q(params, "A", optimize_alpha=False)
    assert optimum.value == pytest.approx(0.2, abs=1e-15)
    assert optimum.r_star == 1.0
    swapped = TwoQubitParams(0.35, 0.1, 0.3, 0.25)
    optimum = max_transfer_2q(swapped, "A", optimize_alpha=False)
    assert optimum.value == 0.0
    assert optimum.r_star == 0.0


def _refined_grid_max(params, target="A"):
    """Oracle: zooming grid search over the mixing coordinate.

    The phase enters only through Re(alpha * e^{i phi}), whose extremes are
    +-|alpha| by phase alignment, so the search runs over x = r**2 alone
    with the coherent term already at its per-x extreme.
    """
    sign = 1.0 if target == "A" else -1.0
    gap = sign * (params.p01 - params.p10)
    strength = abs(params.alpha)

    def value(x):
        return gap * x + 2.0 * strength * np.sqrt(np.maximum(x * (1.0 - x), 0.0))

    x_lo, x_hi = 0.0, 1.0
    best = -np.inf
    for _ in range(5):
        xs = np.linspace(x_lo, x_hi, 201)
        values = value(xs)
        i = int(np.argmax(values))
        best = float(values[i])
        window = (x_hi - x_lo) / 10
        x_lo, x_hi = max(0.0, xs[i] - window), min(1.0, xs[i] + window)
    return best


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_max_transfer_fixed_alpha_vs_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    for target in ("A", "B"):
        optimum = max_transfer_2q(params, target, optimize_alpha=False)
        refined = _refined_grid_max(params, target)
        assert optimum.value >= refined - 1e-12
        assert optimum.value == pytest.approx(refined, abs=1e-7)
        # the reported (r*, phi*) actually achieves the reported value
        achieved = delta_diag_2q(params, optimum.r_star) + delta_coh_2q(
            params, optimum.r_star, optimum.phi_star
        )
        if target == "B":
            achieved = -achieved
        assert achieved == pytest.approx(optimum.value, abs=1e-12)


def test_max_transfer_agrees_with_block_optimizer(rng):
    spec = two_qubit_spectrum()
    for _ in range(30):
        params = random_params(rng)
        fixed = max_transfer_2q(params, "A", optimize_alpha=False)
        exact = maximize_transfer_exact(params.to_state(), spec, "A")
        assert fixed.value == pytest.approx(exact.value, abs=1e-10)
        fixed_b = max_transfer_2q(params, "B", optimize_alpha=False)
        exact_b = maximize_transfer_exact(params.to_state(), spec, "B")
        assert fixed_b.value == pytest.approx(exact_b.value, abs=1e-10)


def test_free_alpha_optimum_realized_by_unitary():
    spec = two_qubit_spectrum()
    params = TwoQubitParams(0.3, 0.3, 0.1, 0.3)
    optimum = max_transfer_2q(params, "A")
    saturated = TwoQubitParams(
        params.p00, params.p01, params.p10, params.p11, optimum.alpha_star
    )
    u = SecParams2Q(r=optimum.r_star, phi=optimum.phi_star).to_sec_unitary(spec)
    realized = transfer_direct(saturated.to_state(), u, "A")
    assert realized == pytest.approx(optimum.value, abs=1e-12)


def test_bell_state_zero_correlations_is_mixed():
    state = bell_diagonal_state(BellDiagParams(0, 0, 0))
    np.testing.assert_allclose(state.matrix, np.eye(4) / 4)


def test_bell_state_singlet_corner():
    state = bell_diagonal_state(BellDiagParams(1, 1, -1))
    psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(state.matrix, np.outer(psi, psi), atol=1e-15)
    lams = BellDiagParams(1, 1, -1).bell_eigenvalues()
    assert lams[0, 1] == pytest.approx(1.0)
    assert lams.sum() == pytest.approx(1.0)


def test_bell_state_roundtrip(rng):
    for _ in range(50):
        while True:
            c = BellDiagParams(*rng.uniform(-1, 1, size=3))
            if c.is_physical():
                break
        back = bell_correlations(bell_diagonal_state(c))
        assert back.c_x == pytest.approx(c.c_x, abs=1e-14)
        assert back.c_y == pytest.approx(c.c_y, abs=1e-14)
        assert back.c_z == pytest.approx(c.c_z, abs=1e-14)


def test_bell_state_max_coherence_line_mapping():
    # correlations (2p, 2p, 1-4p) correspond to alpha = p01 = p10 = p
    for p in (0.1, 0.2, 0.25):
        state = bell_diagonal_state(BellDiagParams(2 * p, 2 * p, 1 - 4 * p))
        params = TwoQubitParams.from_state(state)
        assert params.p01 == pytest.approx(p, abs=1e-15)
        assert params.p10 == pytest.approx(p, abs=1e-15)
        assert params.alpha.real == pytest.approx(p, abs=1e-15)
        assert params.alpha.imag == pytest.approx(0.0, abs=1e-16)


def test_bell_state_rejects_unphysical():
    with pytest.raises(Unphysical):
        bell_diagonal_state(BellDiagParams(1, 1, 1))


def test_concurrence_boundary_line_is_zero():
    for c_x in np.linspace(0, 0.5, 11):
        c = BellDiagParams(c_x, c_x, 2 * c_x - 1)
        assert concurrence_bell_diagonal(c) <= 1e-12
        assert concurrence_wootters(bell_diagonal_state(c)) <= 1e-12


def test_concurrence_bell_corner_is_one():
    c = BellDiagParams(1, 1, -1)
    assert concurrence_bell_diagonal(c) == pytest.approx(1.0)
    assert concurrence_wootters(bell_diagonal_state(c)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_max_coherence_line():
    for p01 in (0.3, 0.4, 0.5):
        c = BellDiagParams(2 * p01, 2 * p01, 1 - 4 * p01)
        assert concurrence_bell_diagonal(c) == pytest.approx(4 * p01 - 1, abs=1e-15)


def test_concurrence_wootters_product_state():
    product = BipartiteState.diagonal([0.4, 0.1, 0.4, 0.1], (2, 2))
    assert concurrence_wootters(product) == 0.0


def test_concurrence_wootters_requires_two_qubits(rng):
    from sec_transfer.fixtures import random_state

    with pytest.raises(NotTwoQubit):
        concurrence_wootters(random_state((3, 2), rng))


def test_concurrence_closed_form_matches_wootters(rng):
    # oracle: the general spin-flip construction
    for _ in range(200):
        c_x = rng.uniform(0, 1)
        c_z = rng.uniform(-1, 1 - 2 * c_x)
        c = BellDiagParams(c_x, c_x, c_z)
        closed = concurrence_bell_diagonal(c)
        general = concurrence_wootters(bell_diagonal_state(c))
        assert closed == pytest.approx(general, abs=1e-10)


def test_concurrence_scope_checks():
    with pytest.raises(Unphysical):
        concurrence_bell_diagonal(BellDiagParams(0.5, 0.2, 0.0))
    with pytest.raises(Unphysical):
        concurrence_bell_diagonal(BellDiagParams(-0.5, -0.5, 0.0))


def test_transfer_vs_concurrence_line():
    # the population optimum at p01 = 0.375, (1 + C)/4 at C = 0.5
    params = TwoQubitParams(0.125, 0.375, 0.375, 0.125)
    assert max_transfer_2q(params, "A").value == pytest.approx(0.375, abs=1e-15)


def test_plane_scan_smallest_grid():
    scan = plane_scan(3)
    assert len(scan) == 6
    apex = [i for i in range(6) if scan.c_x[i] == 0.0 and scan.c_z[i] == 1.0]
    assert len(apex) == 1
    assert scan.max_transfer[apex[0]] == 0.0
    assert scan.concurrence[apex[0]] == 0.0


@pytest.mark.parametrize("resolution", [2, 3, 4, 51])
def test_plane_scan_rows_match_the_grid_loop(resolution):
    """The masked grid keeps the points, and the order, of a loop over c_x then c_z."""
    xs = np.linspace(0.0, 1.0, resolution)
    zs = np.linspace(-1.0, 1.0, resolution)
    kept = [
        (ix, iz, x, z)
        for ix, x in enumerate(xs)
        for iz, z in enumerate(zs)
        if z <= 1.0 - 2.0 * x + 1e-12
    ]
    scan = plane_scan(resolution)
    assert scan.x_index.tolist() == [row[0] for row in kept]
    assert scan.z_index.tolist() == [row[1] for row in kept]
    assert scan.c_x.tolist() == [row[2] for row in kept]
    assert scan.c_z.tolist() == [row[3] for row in kept]


def test_plane_scan_layout_at_resolution_801():
    """Eight read-only columns in seven buffers: c_y is c_x, the indices are int32."""
    scan = plane_scan(801)
    columns = [scan.c_x, scan.c_y, scan.c_z, scan.max_transfer, scan.concurrence,
               scan.separable, scan.x_index, scan.z_index]
    bases = [column if column.base is None else column.base for column in columns]
    buffers = {id(base): base for base in bases}
    assert len(scan) == 321201
    assert sum(buffer.nbytes for buffer in buffers.values()) == 13169241
    assert np.shares_memory(scan.c_x, scan.c_y)
    assert not any(column.flags.writeable for column in columns)
    assert scan.x_index.dtype == scan.z_index.dtype == np.int32


def test_plane_scan_rejects_tiny_resolution():
    with pytest.raises(ValidationError):
        plane_scan(1)


def test_plane_scan_gradient_direction_and_magnitude():
    scan = plane_scan(41)
    grads = plane_scan_gradient(scan)["gradients"]
    assert len(grads) > 0
    norms = np.linalg.norm(grads, axis=1)
    directions = grads / norms[:, None]
    expected = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.abs(directions - expected).max() <= 1e-8
    assert np.abs(norms - 1 / np.sqrt(2)).max() <= 1e-8


def test_plane_scan_constant_concurrence_lines():
    scan = plane_scan(81)
    # along c_z = 2(c_x - C) - 1 the concurrence stays C
    for target_c in (0.25, 0.5):
        rows = [
            i
            for i in range(len(scan))
            if abs(scan.c_z[i] - (2 * (scan.c_x[i] - target_c) - 1)) < 1e-12
        ]
        assert rows
        for i in rows:
            assert scan.concurrence[i] == pytest.approx(target_c, abs=1e-12)


def test_plane_scan_separable_advantage():
    scan = plane_scan(41)
    winners = (scan.separable) & (scan.max_transfer > 0.05)
    assert winners.any()


def test_plane_scan_concurrence_derivative_positive():
    scan = plane_scan(41)
    rates = concurrence_directional_derivative(scan)["rates"]
    assert len(rates) > 0
    assert rates.min() > 0
    # the transfer grows at rate 1/(2 sqrt(3)) along the concurrence direction
    np.testing.assert_allclose(rates, 1 / (2 * np.sqrt(3)), atol=1e-12)


def test_two_qubit_guards_name_what_they_refuse():
    with pytest.raises(ValidationError, match=r"^r must lie in \[0, 1\], got 1.5$"):
        SecParams2Q(r=1.5, phi=0.0)
    with pytest.raises(ValidationError, match=r"^thetas must hold four phases \(t00, t01"):
        SecParams2Q(r=0.5, phi=0.0, thetas=(0.0, 0.0, 0.0))
    with pytest.raises(NotTwoQubit, match=r"^expected a 2x2 joint spectrum, got dims \(3, 2\)$"):
        SecParams2Q(r=0.5, phi=0.0).to_sec_unitary(ladder_spectrum(3, 2))
    with pytest.raises(NotTwoQubit, match=r"^expected dims \(2, 2\), got \(3, 2\)$"):
        concurrence_wootters(BipartiteState(np.eye(6) / 6, (3, 2)))
    with pytest.raises(Unphysical, match="^correlations lie outside the physical tetrahedron$"):
        concurrence_bell_diagonal(BellDiagParams(0.9, 0.9, 0.9))
