"""Command-line front end.

Verdicts double as exit codes so property sweeps can be shell-scripted:
0 means success or a true verdict, 1 a false verdict (invalid instrument,
incompatible pair, harness violations), 2 a structural or schema error.
``--tol`` scales the matrix-equality and probability thresholds together by
one factor; ``--json`` switches reports to a versioned JSON schema.

A subcommand imports only the modules its verdict needs: the decision
modules are imported inside the ``_cmd_*`` functions that call them, so a
short-lived process does not pay for the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .errors import (
    DegenerateSeedError,
    ExtractionError,
    ModelParseError,
    SchemaError,
    StructureError,
)
from .instruments import (
    Instrument,
    _extract_elementary,
    is_repeatable,
    to_elementary,
    validate_instrument,
)
from .linalg import DEFAULT_TOL, Tolerances
from .operations import DensityState, is_atomic
from .serialize import (
    SCHEMA_VERSION,
    ModelFile,
    matrix_to_lists,
    model_from_path,
    state_to_dict,
)


def _load(path: str, kinds: tuple[str, ...]) -> ModelFile:
    model = model_from_path(path)
    if model.kind not in kinds:
        raise SchemaError(f"expected a model of kind {kinds}, got {model.kind!r}", "$.kind")
    return model


def _elementary(path: str, tol: Tolerances):
    return to_elementary(_load(path, ("quantum-instrument",)).value, tol)


def _degree_table_dict(table) -> dict:
    return {
        label: {
            "kind": verdict.kind.value,
            "probabilities": verdict.probabilities,
            "entropy_bits": verdict.entropy_bits,
        }
        for label, verdict in table.items()
    }


def _cmd_validate(args, tol: Tolerances) -> tuple[int, dict]:
    model = model_from_path(args.file)
    if model.kind == "quantum-instrument":
        report = validate_instrument(model.value, tol)
        valid, problems = report.is_valid, list(report.problems)
    elif model.kind == "classical-instrument":
        from .classical import validate_classical

        report = validate_classical(model.value, tol)
        valid, problems = report.is_valid, list(report.problems)
    elif model.kind == "witness":
        # The realisation C and each post-processing instrument, each problem
        # prefixed with where it was found.
        w = model.value
        parts = [("C", w.c), *((f"post {z!r}", ins) for z, ins in w.post.items())]
        problems = [f"{where}: {problem}" for where, ins in parts
                    for problem in validate_instrument(ins, tol).problems]
        valid = not problems
    else:
        valid, problems = True, []
    out = {"command": "validate", "valid": valid, "problems": problems}
    return (0 if valid else 1), out


def _cmd_classify(args, tol: Tolerances) -> tuple[int, dict]:
    model = _load(args.file, ("quantum-instrument", "classical-instrument"))
    if model.kind == "classical-instrument":
        from .classical import classical_is_elementary, validate_classical

        report = validate_classical(model.value, tol)
        elementary, canonical = (
            classical_is_elementary(model.value, tol)
            if model.value.size_in == model.value.size_out
            else (False, None)
        )
        out = {
            "command": "classify",
            "valid": report.is_valid,
            "elementary": bool(elementary),
            "canonical_order": list(canonical.labels) if canonical else None,
        }
        return (0 if report.is_valid and elementary else 1), out

    ins: Instrument = model.value
    report = validate_instrument(ins, tol)
    square = ins.dim_in == ins.dim_out
    repeatable = square and is_repeatable(ins, tol)
    atomic = {label: is_atomic(op, tol) for label, op in ins.outcomes.items()}
    ranks = None
    if report.is_valid and repeatable and all(atomic.values()):
        try:
            ranks = _extract_elementary(ins, tol).rank_profile()
        except (StructureError, ExtractionError):
            pass
    elementary = ranks is not None
    out = {
        "command": "classify",
        "valid": report.is_valid,
        "repeatable": repeatable,
        "atomic": atomic,
        "elementary": elementary,
        "projector_ranks": ranks,
    }
    return (0 if elementary else 1), out


def _cmd_verifiers(args, tol: Tolerances) -> tuple[int, dict]:
    from .verifiers import instrument_verifier_report, verifier_support

    model = _load(args.file, ("quantum-instrument",))
    ins: Instrument = model.value
    if args.outcome not in ins.outcomes:
        raise SchemaError(
            f"unknown outcome {args.outcome!r}, instrument has {list(ins.labels)}", "$.outcome"
        )
    op = ins[args.outcome]
    support = verifier_support(op, tol)
    out = {
        "command": "verifiers",
        "outcome": args.outcome,
        "support_dimension": support.shape[1],
        "support_basis": matrix_to_lists(support.T),
    }
    if args.state is None:
        return 0, out
    state_model = _load(args.state, ("state",))
    state: DensityState = state_model.value
    report = instrument_verifier_report(ins, state, tol)
    out["verifier_report"] = {
        "outcome": report.outcome,
        "probability": report.probability,
        "is_verifier": report.is_verifier,
        "is_strong": report.is_strong,
    }
    verdict = report.is_verifier and report.outcome == args.outcome
    return (0 if verdict else 1), out


def _cmd_comp(args, tol: Tolerances) -> tuple[int, dict]:
    from .complementarity import classify_relation

    p, q = _elementary(args.p, tol), _elementary(args.q, tol)
    report = classify_relation(p, q, tol)
    out = {
        "command": "comp",
        "complementary": report.complementary,
        "bijection": report.matched_bijection,
        "witness": state_to_dict(report.witness) if report.witness is not None else None,
        "degree_table": _degree_table_dict(report.degree_table),
        "reverse_degree_table": _degree_table_dict(report.reverse_degree_table),
    }
    return (0 if report.complementary else 1), out


def _cmd_compat(args, tol: Tolerances) -> tuple[int, dict]:
    from .compatibility import pvm_commute
    from .complementarity import _relation

    p, q = _elementary(args.p, tol), _elementary(args.q, tol)
    # Weakly compatible iff not complementary: the bijection decides, no witness is sought.
    report = _relation(p, q, tol, tables=False, search=False)
    out = {
        "command": "compat",
        "compatible": not report.complementary,
        "complementary": report.complementary,
        "pvm_commute": pvm_commute(p, q, tol),
        "bijection": report.matched_bijection,
    }
    return (1 if report.complementary else 0), out


def _cmd_witness(args, tol: Tolerances) -> tuple[int, dict]:
    from .compatibility import verify_witness

    t = _load(args.t, ("quantum-instrument",)).value
    g = _load(args.g, ("quantum-instrument",)).value
    w = _load(args.w, ("witness",)).value
    report = verify_witness(t, g, w, tol)
    out = {
        "command": "witness",
        "valid": report.valid,
        "threshold": report.threshold,
        "realisation_residuals": report.realisation_residuals,
        "simulation_residuals": report.simulation_residuals,
        "max_residual": report.max_residual,
    }
    return (0 if report.valid else 1), out


def _cmd_harness(args, tol: Tolerances) -> tuple[int, dict]:
    if args.theory == "quantum":
        from .compatibility import verifier_inclusion_harness as harness
    else:
        from .classical import classical_theorem_harness as harness
    report = harness(args.seed, args.dim, args.trials, tol)
    out = {
        "command": "harness",
        "theory": report.theory,
        "seed": report.seed,
        "generator": report.algorithm,
        "dim": report.dim,
        "trials": report.trials,
        "filtered_trials": report.filtered_trials,
        "checked_cases": report.checked_cases,
        "violations": report.violations,
        "cases": [list(case) for case in report.cases],
    }
    return (0 if report.violations == 0 else 1), out


def _print_human(out: dict):
    """One ``key: value`` line per leaf of ``out``. A character stdout cannot
    encode, such as a label's lone surrogate, prints as a backslash escape."""
    lines = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key, inner in value.items():
                emit(f"{prefix}{key}.", inner)
        else:
            lines.append(f"{prefix.rstrip('.')}: {_short(value)}\n")

    for key, value in out.items():
        if key in ("support_basis", "witness", "cases"):
            continue
        emit(f"{key}.", value)
    text = "".join(lines)
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        # A text stream encodes a whole write before it writes any of it.
        encoding = sys.stdout.encoding
        sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))


def _short(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, list) and len(value) > 8:
        return f"[{len(value)} entries]"
    return value


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, except that every list (a matrix, a
    vector, labels, harness cases) prints on one line through the C encoder.
    Reports hold only string keys, dicts, lists and scalars, and no list
    holds a dict."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    return json.dumps(value)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; every caller shares it."""
    parser = argparse.ArgumentParser(
        prog="qcomplement",
        description="Decision procedures for instruments: elementary-property "
        "classification, verifier states, complementarity, and compatibility.",
    )
    parser.add_argument("--tol", type=float, default=1.0, metavar="F",
                        help="scale matrix/probability tolerances by this factor")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instrument, state, or witness file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify an instrument (repeatable/atomic/elementary)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verifiers", help="verifier support of one outcome, optionally test a state")
    p.add_argument("file")
    p.add_argument("--outcome", required=True, metavar="L")
    p.add_argument("--state", metavar="S")
    p.set_defaults(func=_cmd_verifiers)

    p = sub.add_parser("comp", help="complementarity report for two elementary properties")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_comp)

    p = sub.add_parser("compat", help="weak compatibility of two elementary properties")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("witness", help="verify an exclusion witness against two instruments")
    p.add_argument("t")
    p.add_argument("g")
    p.add_argument("w")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("harness", help="run a verifier-inclusion theorem harness")
    p.add_argument("--theory", choices=("quantum", "classical"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_harness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = DEFAULT_TOL.scaled(args.tol) if args.tol != 1.0 else DEFAULT_TOL
    except ValueError as exc:
        parser.error(f"--tol {args.tol}: {exc}")
    try:
        code, out = args.func(args, tol)
    except (StructureError, SchemaError, ModelParseError, ExtractionError,
            DegenerateSeedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault of the package, not a verdict: never exit 1 for it.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out = {"schema": SCHEMA_VERSION, **out}
    try:
        if args.json:
            print(_dumps(out))
        else:
            _print_human(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped reading, as `head` does; the verdict stands. The
        # exit-time flush goes to the null device instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
