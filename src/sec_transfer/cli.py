"""Batch front end: load problems, run computations, emit JSON/CSV reports.

Subcommands: ``decompose``, ``analyze``, ``optimize``, ``classify``,
``qubit-max``, ``bell-scan``, ``verify``.  Exit codes: 0 on success, 2 on a
validation error (malformed or non-UTF-8 input, missing field, unphysical
data, a request too large for memory), 3 when a numerical invariant fails.
Every failure message names the violated invariant and, where one applies,
the offending tolerance.

``--tolerance KEY=VAL`` overrides one of the four keys of
:mod:`sec_transfer.tolerances` (``herm``, ``trace``, ``psd``, ``split``); an
unknown key, a value that is not a finite, nonnegative float, or a key the
subcommand never reads exits 2.  Each subcommand's parser, in
:func:`build_parser`, states the tolerance keys it reads (``reads``) and
whether it reads an ``--input`` file (``takes_input``); :func:`run` checks
both before anything else, so an ``--input`` missing where one is needed, or
given where none is read, exits 2 before any file is opened.  Every other
check of the flags alone also runs before the problem file is read.

Identical configuration and seed produce byte-identical reports; any command
that samples requires an explicit ``--seed``.  ``--help`` and ``qubit-max``
run without importing numpy: this module imports only numpy-free modules, and
reads every other public name from the package, which imports only that
name's home module, on first use.  :func:`run` calls those layers as
attributes of this module, so a wrapper set on it is the one that runs.

A problem file's state is judged once, at admission under the run's
tolerances; no later step refuses it.  The CPUs this process may run on
(``os.sched_getaffinity``; ``taskset -c 0`` narrows them to one) size all
parallel work: the Monte-Carlo search draws a chunk's blocks on one thread
per block up to that count, and a file of at least ``formats.SPLIT_BYTES``
read on two or more CPUs is decoded with one forked helper process, which
never returns into this module and is reaped before the state is admitted.
"""

from __future__ import annotations

import argparse
import sys

from . import tolerances
from .errors import NumericalInvariantError, ValidationError
from .jsonio import dump_json, format_json, read_json, two_qubit_params_from_json
from .twoqubit import max_transfer_2q


def __getattr__(name: str):
    # a public name of the package, imported from its home module on first use
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _parse_tolerances(args: argparse.Namespace) -> dict[str, float]:
    tol = tolerances.parse(args.tolerance)
    for pair in args.tolerance or []:
        key = pair.partition("=")[0]
        if key not in args.reads:
            raise ValidationError(
                f"{args.command} does not use tolerance {key!r}; "
                f"it reads {', '.join(args.reads) or 'none'}"
            )
    return tol


def _parse_probs(raw: str | None) -> list[float] | None:
    if raw is None:
        return None
    try:
        return [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated floats, got {raw!r}") from None


def _load_state(args: argparse.Namespace, tol: dict, require_state: bool = True):
    from . import formats

    h_a, h_b, spec, state = formats.load_problem(args.input, tol)
    if require_state and state is None:
        raise ValidationError("problem file carries no state")
    return h_a, h_b, spec, state


def _write_report(args: argparse.Namespace, payload: dict, dump) -> None:
    """The report on stdout, or through ``dump`` into ``--output``."""
    if args.output is None:
        print(format_json(payload))
    else:
        dump(payload, args.output)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    tol = _parse_tolerances(args)
    if (args.input is None) == args.takes_input:
        rule = "requires" if args.takes_input else "does not use"
        raise ValidationError(f"{args.command} {rule} --input")

    if args.command == "qubit-max":
        params = two_qubit_params_from_json(read_json(args.input))
        optimum = max_transfer_2q(params, args.target, optimize_alpha=not args.fixed_alpha)
        payload = {
            "target": args.target,
            "value": optimum.value,
            "r_star": optimum.r_star,
            "phi_star": optimum.phi_star,
            "alpha_star_re": optimum.alpha_star.real,
            "alpha_star_im": optimum.alpha_star.imag,
            "alpha_optimized": not args.fixed_alpha,
        }
        _write_report(args, payload, dump_json)
        return 0

    # every other subcommand needs numpy; its layers are called through this
    # module object (``__main__`` under ``python -m``), where wrappers are set
    from . import formats

    cli = sys.modules[__name__]

    if args.command == "decompose":
        _, _, spec, state = _load_state(args, tol)
        decomp = cli.decompose(state, spec)
        names = [formats.fraction_key(e) for e in spec.energies]
        probs = [decomp.probs[spec.layout.span(i)] for i in range(len(names))]
        payload = {
            "p_E": {name: float(p.sum()) for name, p in zip(names, probs)},
            "blocks": {name: [float(x) for x in p] for name, p in zip(names, probs)},
            "coherence_blocks": sorted(
                f"{names[i]}|{names[j]}" for i, j in decomp.coh_blocks.tolist()
            ),
        }
        _write_report(args, payload, formats.dump_json)
        if args.csv is not None:
            formats.write_decomposition_csv(decomp, args.csv)
        return 0

    if args.command == "analyze":
        if args.unitary is None and args.seed is None:
            raise ValidationError("analyze needs --unitary FILE or --seed N")
        _, _, spec, state = _load_state(args, tol)
        if args.unitary is not None:
            u = formats.sec_unitary_from_json(read_json(args.unitary), spec)
        else:
            u = cli.sample_haar(spec, args.seed)
        report = cli.analyze(state, u, args.target, split_tol=tol["split"])
        _write_report(args, formats.transfer_report_to_json(report, spec), formats.dump_json)
        return 0

    if args.command == "optimize":
        if args.method == "monte-carlo" and args.seed is None:
            raise ValidationError("optimize --method monte-carlo requires --seed")
        _, _, spec, state = _load_state(args, tol)
        if args.method == "exact":
            result = cli.maximize_transfer_exact(state, spec, args.target)
        elif args.method == "diagonal":
            from .optimize import METHOD_DIAGONAL, OptimizationResult

            # the decomposition's copy of the state is freed before the dense reference
            unitary = cli.optimal_diagonal_unitary(cli.decompose(state, spec), spec, args.target)
            value = cli.transfer_direct(state, unitary, args.target)
            result = OptimizationResult(value, unitary, METHOD_DIAGONAL)
        else:
            result = cli.monte_carlo_max(state, spec, args.target, args.samples, args.seed)
        _write_report(args, formats.optimization_result_to_json(result), formats.dump_json)
        return 0

    if args.command == "classify":
        probs_a = _parse_probs(args.probs_a)
        probs_b = _parse_probs(args.probs_b)
        thermal = args.beta_a is not None or args.beta_b is not None
        passive = probs_a is not None or probs_b is not None
        if thermal and passive:
            raise ValidationError("choose one of thermal or passive/max-active flags")
        if thermal and (args.beta_a is None or args.beta_b is None):
            raise ValidationError("thermal constructor needs both --beta-a and --beta-b")
        if passive and (probs_a is None or probs_b is None):
            raise ValidationError(
                "passive/max-active constructor needs both --probs-a and --probs-b"
            )
        h_a, h_b, spec, state = _load_state(args, tol, require_state=False)
        if thermal:
            state = cli.thermal_product(h_a, h_b, args.beta_a, args.beta_b)
        elif passive:
            state = cli.passive_max_active_product(probs_a, probs_b, h_a, h_b)
        elif state is None:
            raise ValidationError(
                "classify needs a state in the problem file or constructor flags"
            )
        label = cli.classify_flow(state, spec, args.target)
        _write_report(args, formats.flow_classification_to_json(label, spec), formats.dump_json)
        return 0

    if args.command == "bell-scan":
        if args.output is None:
            raise ValidationError("bell-scan requires --output for the CSV table")
        scan = cli.plane_scan(args.resolution)
        formats.write_plane_scan_csv(scan, args.output)
        return 0

    # verify, the last subcommand; the parser admits no other
    from . import verify

    results = verify.run_all(args.seed)
    print(verify.format_table(results))
    if args.output is not None:
        formats.dump_json(
            {
                "seed": args.seed,
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            },
            args.output,
        )
    if not all(r.passed for r in results):
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sec-transfer",
        description=(
            "Energy transfer between two finite quantum systems under "
            "energy-conserving block unitaries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # reads: the --tolerance keys the subcommand applies (overriding any other
    # is refused); takes_input: whether it requires --input or refuses it
    def common(cmd, reads=(), takes_input=True, target=False, seed=False):
        cmd.set_defaults(reads=reads, takes_input=takes_input)
        cmd.add_argument("--input", type=str, default=None, help="problem JSON file")
        cmd.add_argument("--output", type=str, default=None, help="report path (default stdout)")
        cmd.add_argument(
            "--tolerance",
            action="append",
            metavar="KEY=VAL",
            help=f"override a tolerance ({', '.join(tolerances.DEFAULTS)})",
        )
        if target:
            cmd.add_argument("--target", choices=("A", "B"), required=True)
        if seed:
            cmd.add_argument("--seed", type=int, default=None)

    decompose_cmd = sub.add_parser("decompose", help="split a state into energy blocks")
    common(decompose_cmd, reads=tolerances.ADMISSION)
    decompose_cmd.add_argument("--csv", type=str, default=None, help="also write a CSV summary")

    analyze_cmd = sub.add_parser("analyze", help="transfer report for one unitary")
    common(analyze_cmd, reads=tolerances.ADMISSION + ("split",), target=True, seed=True)
    analyze_cmd.add_argument("--unitary", type=str, default=None, help="block-unitary JSON file")

    optimize_cmd = sub.add_parser("optimize", help="maximize the transfer to one side")
    common(optimize_cmd, reads=tolerances.ADMISSION, target=True, seed=True)
    optimize_cmd.add_argument(
        "--method", choices=("exact", "diagonal", "monte-carlo"), default="exact"
    )
    optimize_cmd.add_argument(
        "--samples", type=int, default=10000, help="monte-carlo sample count (at least 1)"
    )

    classify_cmd = sub.add_parser("classify", help="one-way energy-flow membership")
    common(classify_cmd, reads=tolerances.ADMISSION, target=True)
    classify_cmd.add_argument("--beta-a", type=float, default=None)
    classify_cmd.add_argument("--beta-b", type=float, default=None)
    classify_cmd.add_argument("--probs-a", type=str, default=None, help="comma-separated")
    classify_cmd.add_argument("--probs-b", type=str, default=None, help="comma-separated")

    qubit_cmd = sub.add_parser("qubit-max", help="two-qubit closed-form optimum")
    common(qubit_cmd, target=True)
    qubit_cmd.add_argument(
        "--fixed-alpha",
        action="store_true",
        help="optimize the unitary only, keeping the state's own coherence",
    )

    scan_cmd = sub.add_parser("bell-scan", help="CSV scan of the Bell-diagonal plane")
    common(scan_cmd, takes_input=False)
    scan_cmd.add_argument("--resolution", type=int, default=201)

    verify_cmd = sub.add_parser("verify", help="run the property registry at fast strength")
    common(verify_cmd, takes_input=False, seed=True)
    verify_cmd.set_defaults(seed=tolerances.DEFAULT_SEED)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an error on stdout (a closed pipe, say) carries no file name
        where = "" if exc.filename is None else f"{exc.filename!r}: "
        print(f"validation error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"validation error: the {args.command} request does not fit in memory{detail}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
