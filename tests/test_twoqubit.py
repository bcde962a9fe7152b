"""The numpy-free two-qubit closed forms.

``TwoQubitParams`` checks finiteness with ``math``/``cmath``; it must accept
and refuse exactly what ``np.isfinite`` does, with the same message.  The
reversal threshold is the paper's headline claim: enough coherence turns the
flow out of the hotter qubit around.
"""

import math

import numpy as np
import pytest

from sec_transfer import (
    BipartiteState,
    NotTwoQubit,
    SecParams2Q,
    TwoQubitParams,
    ValidationError,
    delta_coh_2q,
    delta_diag_2q,
    max_transfer_2q,
    transfer_direct,
)
from sec_transfer.twoqubit import check_system

NAN, INF = float("nan"), float("inf")
BASE = (0.1, 0.2, 0.4, 0.3)
BASE_ALPHA = complex(0.05, -0.02)


def _numpy_verdict(probs, alpha) -> str | None:
    """The refusal message of the former ``np.isfinite`` check, or None."""
    if not np.isfinite([*probs, alpha]).all():
        return f"two-qubit parameters must be finite, got {tuple(probs)} and alpha={alpha}"
    return None


def _verdict(probs, alpha) -> str | None:
    try:
        TwoQubitParams(*probs, alpha=alpha)
    except ValidationError as exc:
        return str(exc)
    return None


def _cases():
    yield "zeros", (0.0, 0.5, 0.5, -0.0), complex(-0.0, 0.0)
    yield "negative-zero-alpha", BASE, complex(-0.0, -0.0)
    for value, label in ((NAN, "nan"), (INF, "inf"), (-INF, "-inf")):
        for i in range(4):
            probs = list(BASE)
            probs[i] = value
            yield f"p{i}-{label}", tuple(probs), BASE_ALPHA
        yield f"alpha-re-{label}", BASE, complex(value, 0.02)
        yield f"alpha-im-{label}", BASE, complex(0.05, value)
        yield f"float64-{label}", tuple(np.float64(p) for p in (value, *BASE[1:])), \
            np.complex128(BASE_ALPHA)
        yield f"complex128-{label}", tuple(np.float64(p) for p in BASE), \
            np.complex128(complex(0.05, value))
    yield "numpy-finite", tuple(np.float64(p) for p in BASE), np.complex128(BASE_ALPHA)
    yield "real-alpha", BASE, 0.05


CASES = list(_cases())


@pytest.mark.parametrize("probs, alpha", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_finite_check_decides_as_np_isfinite(probs, alpha):
    expected = _numpy_verdict(probs, alpha)
    assert _verdict(probs, alpha) == expected
    if expected is None:
        TwoQubitParams(*probs, alpha=alpha)  # finite and otherwise valid: accepted


# locally thermal-like pair with qubit A hotter: p01 < p10
HOT_A = (0.1, 0.2, 0.4, 0.3)


def _threshold(r: float) -> float:
    p01, p10 = HOT_A[1], HOT_A[2]
    return (p10 - p01) * r / (2.0 * math.sqrt(1.0 - r * r))


@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("theta", [0.0, 0.7, -2.5])
def test_reversal_threshold_at_fixed_mixing(r, side, theta):
    """Aligned phase, fixed ``r``: energy enters A iff |alpha| exceeds the threshold."""
    magnitude = _threshold(r) + side * 1e-6
    assert magnitude ** 2 < HOT_A[1] * HOT_A[2]  # an admissible coherence
    params = TwoQubitParams(*HOT_A, alpha=magnitude * complex(math.cos(theta), math.sin(theta)))
    phi = -theta  # aligns Re(alpha e^{i phi}) with |alpha|
    closed = delta_diag_2q(params, r) + delta_coh_2q(params, r, phi)
    dense = transfer_direct(params.to_state(), SecParams2Q(r, phi).to_sec_unitary(), "A")
    assert np.sign(closed) == side
    assert np.sign(dense) == side
    assert dense == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("target", ["A", "B"])
def test_equal_populations_without_coherence_move_nothing(target):
    # gap and coherence both vanish, so the closed form's spread is zero
    params = TwoQubitParams(0.2, 0.3, 0.3, 0.2)
    best = max_transfer_2q(params, target, optimize_alpha=False)
    assert (best.value.hex(), best.r_star.hex()) == ((0.0).hex(), (0.0).hex())


@pytest.mark.parametrize("magnitude", [0.0, 1e-3, 0.05, 0.2])
def test_any_coherence_reverses_the_flow_over_all_unitaries(magnitude):
    params = TwoQubitParams(*HOT_A, alpha=complex(0.0, magnitude))
    best = max_transfer_2q(params, "A", optimize_alpha=False)
    gap = HOT_A[1] - HOT_A[2]
    assert best.value == pytest.approx(0.5 * (gap + math.hypot(gap, 2.0 * magnitude)), abs=1e-15)
    if magnitude == 0.0:
        assert best.value == 0.0
        return
    assert best.value > 0.0
    unitary = SecParams2Q(best.r_star, best.phi_star).to_sec_unitary()
    assert transfer_direct(params.to_state(), unitary, "A") == pytest.approx(best.value, abs=1e-12)


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("phi", {"phi": NAN}),
        ("phi", {"phi": INF}),
        ("phi", {"phi": -INF}),
        ("thetas", {"thetas": (0.0, NAN, 0.0, 0.0)}),
        ("thetas", {"thetas": (0.0, 0.0, 0.0, INF)}),
    ],
    ids=["phi-nan", "phi-inf", "phi-minus-inf", "theta-nan", "theta-inf"],
)
def test_non_finite_phases_are_refused_by_name(field, kwargs):
    with pytest.raises(ValidationError, match=field):
        SecParams2Q(r=0.5, **kwargs)


@pytest.mark.parametrize("phi", [NAN, INF, -INF], ids=["nan", "inf", "minus-inf"])
def test_coherent_transfer_refuses_a_non_finite_phase(phi):
    with pytest.raises(ValidationError, match="phi"):
        delta_coh_2q(TwoQubitParams(*BASE, alpha=BASE_ALPHA), 0.5, phi)


@pytest.mark.parametrize("r", [-0.5, 1.5])
def test_closed_forms_refuse_a_mixing_outside_the_unit_interval(r):
    params = TwoQubitParams(*BASE, alpha=BASE_ALPHA)
    message = rf"^r must lie in \[0, 1\], got {r}$"
    with pytest.raises(ValidationError, match=message):
        delta_diag_2q(params, r)
    with pytest.raises(ValidationError, match=message):
        delta_coh_2q(params, r, 0.0)


def test_system_and_state_guards_name_what_they_refuse():
    with pytest.raises(ValidationError, match="^system must be 'A' or 'B', got 'C'$"):
        check_system("C")
    with pytest.raises(NotTwoQubit, match=r"^expected dims \(2, 2\), got \(3, 2\)$"):
        TwoQubitParams.from_state(BipartiteState(np.eye(6) / 6, (3, 2)))
