"""JSON reading and report writing, without numpy.

The JSON helpers that need only the standard library: the strict file
reader, field access, the deterministic report text, the two-qubit
parameter schema ``{"p00", "p01", "p10", "p11", "alpha_re", "alpha_im"}``
(the coherence keys optional, default 0), and the ``qubit-max`` report (the
optimum's fields, ``target`` and ``alpha_optimized``).  This is their one home:
:mod:`sec_transfer.formats` imports the reader (and its two steps,
:func:`read_text` and :func:`parse_json`, for a pipe), field access and
``dump_json`` for its own use, and the ``qubit-max`` command uses them
without loading numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import NumericalInvariantError, ValidationError
from .twoqubit import TwoQubitOptimum, TwoQubitParams


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{context} must be a JSON object")
    if key not in mapping:
        raise ValidationError(f"{context} is missing required key {key!r}")
    return mapping[key]


def _number(value, context: str) -> float:
    """A JSON number as a float; strings, bools and nulls are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{context} is an integer too large for a double") from None


def _reject_constant(token: str):
    raise ValidationError(f"non-finite JSON value {token} is not allowed")


def read_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity tokens.

    Text that is not UTF-8 or not JSON, nested too deeply, or holding an
    integer literal longer than Python converts raises a ValidationError
    naming the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return parse_json(read_text(handle, path), path)


def read_text(handle, path) -> str:
    """The whole text of ``handle``, a UTF-8 text file not yet read, opened on ``path``."""
    try:
        return handle.read()
    except UnicodeDecodeError as exc:
        # the whole file is decoded in one call, so exc.start is a file offset
        raise ValidationError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start})"
        ) from None


def parse_json(text: str, path):
    """:func:`read_json` on ``text``, the whole text of the file at ``path``."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: malformed JSON ({exc.msg} at line {exc.lineno}, column {exc.colno})"
        ) from None
    except ValueError as exc:
        # int() refuses a literal over sys.get_int_max_str_digits() digits
        detail = str(exc).partition(";")[0]
        raise ValidationError(f"{path}: JSON number too long to read ({detail})") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to read") from None


def format_json(payload: dict) -> str:
    """A report's text: sorted keys, indent 2; non-finite values are refused."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalInvariantError(f"report holds a non-finite value ({exc})") from None


def dump_json(payload: dict, path) -> None:
    """Write a report deterministically, the same bytes stdout would get."""
    Path(path).write_text(format_json(payload) + "\n", encoding="utf-8")


def two_qubit_params_to_json(params: TwoQubitParams) -> dict:
    """The inverse of :func:`two_qubit_params_from_json`, which the tests check through it."""
    return {
        "p00": params.p00,
        "p01": params.p01,
        "p10": params.p10,
        "p11": params.p11,
        "alpha_re": params.alpha.real,
        "alpha_im": params.alpha.imag,
    }


def two_qubit_params_from_json(data: dict) -> TwoQubitParams:
    context = "two-qubit params JSON"
    probs = [
        _number(_require(data, key, context), f"{context} {key!r}")
        for key in ("p00", "p01", "p10", "p11")
    ]
    alpha = [_number(data.get(key, 0.0), f"{context} {key!r}") for key in ("alpha_re", "alpha_im")]
    return TwoQubitParams(*probs, alpha=complex(*alpha))


def two_qubit_optimum_to_json(optimum: TwoQubitOptimum, target: str, alpha_optimized: bool) -> dict:
    return {
        "target": target,
        "value": optimum.value,
        "r_star": optimum.r_star,
        "phi_star": optimum.phi_star,
        "alpha_star_re": optimum.alpha_star.real,
        "alpha_star_im": optimum.alpha_star.imag,
        "alpha_optimized": alpha_optimized,
    }
