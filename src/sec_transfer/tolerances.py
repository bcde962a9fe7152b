"""Every tolerance the library applies, one named value per decision.

Four of them can be overridden per run with ``--tolerance KEY=VAL``; their
keys are the entries of ``DEFAULTS``:

* ``herm`` - state admission, max ``|rho - rho^dagger|``;
* ``trace`` - state admission and the block-probability sum, ``|sum - 1|``;
* ``psd`` - state admission, how far the lowest eigenvalue may dip below 0;
* ``split`` - the transfer split, ``|total - diagonal - coherent|``.

Their default values also serve, without override, every other probability
sum (``TRACE``) and the sign check on populations the optimizers rearrange
(``PSD``).  The other values are fixed: no function takes a parameter that
overrides one.  The thresholds of individual ``verify`` properties live with
those properties, not here.
``DEFAULT_SEED``, the seed ``verify`` runs when given none, is kept here so
the command line can name it without importing the registry and numpy.
"""

from __future__ import annotations

import math

from .errors import ValidationError

HERMITICITY = 1e-12
TRACE = 1e-12
PSD = 1e-10
SPLIT = 1e-12

# entries of a decomposition below this magnitude are stored as exact zeros
ZERO = 1e-15
# |alpha_ij|^2 <= p_i p_j may be exceeded by this much (2x2 principal minors)
POPULATION_BOUND = 1e-12
# max |U^dagger U - I| of an admitted block unitary
UNITARITY = 1e-12
# product of two amplitudes above which a unitary can convert coherence
COHERENCE_CAPABLE = 1e-14
# same-energy coherence magnitude above which it counts as present
COHERENCE_ZERO = 1e-14
# probabilities this close count as equal in passivity comparisons
PASSIVITY_EQ = 1e-12
# float noise on a transfer before a comparison between transfers fails
TRANSFER_NOISE = 1e-12
# how far a two-qubit closed-form input may stray outside its domain
QUBIT_DOMAIN = 1e-12

DEFAULT_SEED = 20240801

DEFAULTS = {"herm": HERMITICITY, "trace": TRACE, "psd": PSD, "split": SPLIT}
# the keys state admission reads; every command that loads a state applies them
ADMISSION = ("herm", "trace", "psd")


def parse(pairs: list[str] | None) -> dict[str, float]:
    """``DEFAULTS`` with ``KEY=VAL`` overrides applied; raises ValidationError.

    A value must be a finite, nonnegative float: NaN, infinity or a negative
    bound would switch the check it names off or make it reject everything.
    """
    tolerances = dict(DEFAULTS)
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--tolerance expects KEY=VAL, got {pair!r}")
        key, _, raw = pair.partition("=")
        if key not in DEFAULTS:
            raise ValidationError(
                f"unknown tolerance key {key!r}; valid keys: {', '.join(DEFAULTS)}"
            )
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"tolerance {key!r} needs a float, got {raw!r}") from None
        if not math.isfinite(value) or value < 0:
            raise ValidationError(
                f"tolerance {key!r} must be finite and nonnegative, got {raw!r}"
            )
        tolerances[key] = value
    return tolerances
