"""Command-line front end.

Verdicts double as exit codes so property sweeps can be shell-scripted:
0 means success or a true verdict, 1 a false verdict (invalid instrument,
incompatible pair, harness violations), 2 a structural or schema error.
``--tol`` scales the matrix-equality and probability thresholds together by
one factor; ``--json`` switches reports to a versioned JSON schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from .classical import (
    classical_is_elementary,
    classical_theorem_harness,
    validate_classical,
)
from .compatibility import (
    pvm_commute,
    verifier_inclusion_harness,
    verify_witness,
)
from .complementarity import are_complementary, classify_relation
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
    model_to_dict,
    state_to_dict,
)
from .verifiers import instrument_verifier_report, verifier_support


def _load(path: str, kinds: tuple[str, ...]) -> ModelFile:
    model = model_from_path(path)
    if model.kind not in kinds:
        raise SchemaError(f"expected a model of kind {kinds}, got {model.kind!r}", "$.kind")
    return model


def _elementary(path: str, tol: Tolerances):
    model = _load(path, ("quantum-instrument",))
    return to_elementary(model.value, tol), model.value


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
        report = validate_classical(model.value, tol)
        valid, problems = report.is_valid, list(report.problems)
    else:
        valid, problems = True, []
    out = {
        "command": "validate",
        "valid": valid,
        "problems": problems,
        "model": model_to_dict(model.value),
    }
    return (0 if valid else 1), out


def _cmd_classify(args, tol: Tolerances) -> tuple[int, dict]:
    model = _load(args.file, ("quantum-instrument", "classical-instrument"))
    if model.kind == "classical-instrument":
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
            "model": model_to_dict(model.value),
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
        "model": model_to_dict(ins),
    }
    return (0 if elementary else 1), out


def _cmd_verifiers(args, tol: Tolerances) -> tuple[int, dict]:
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
        "support_dimension": support.dim,
        "support_basis": matrix_to_lists(support.basis.T),
        "model": model_to_dict(ins),
    }
    if args.state is None:
        return 0, out
    state_model = _load(args.state, ("state",))
    state: DensityState = state_model.value
    report = instrument_verifier_report(ins, state, tol)
    out["state"] = state_to_dict(state)
    out["verifier_report"] = {
        "outcome": report.outcome,
        "probability": report.probability,
        "is_verifier": report.is_verifier,
        "is_strong": report.is_strong,
    }
    verdict = report.is_verifier and report.outcome == args.outcome
    return (0 if verdict else 1), out


def _cmd_comp(args, tol: Tolerances) -> tuple[int, dict]:
    p, p_ins = _elementary(args.p, tol)
    q, q_ins = _elementary(args.q, tol)
    report = classify_relation(p, q, tol)
    out = {
        "command": "comp",
        "complementary": report.complementary,
        "bijection": report.matched_bijection,
        "witness": state_to_dict(report.witness) if report.witness is not None else None,
        "degree_table": _degree_table_dict(report.degree_table),
        "reverse_degree_table": _degree_table_dict(report.reverse_degree_table),
        "models": [model_to_dict(p_ins), model_to_dict(q_ins)],
    }
    return (0 if report.complementary else 1), out


def _cmd_compat(args, tol: Tolerances) -> tuple[int, dict]:
    p, p_ins = _elementary(args.p, tol)
    q, q_ins = _elementary(args.q, tol)
    report = are_complementary(p, q, tol)
    # Elementary properties are weakly compatible iff not complementary.
    compatible = not report.complementary
    out = {
        "command": "compat",
        "compatible": compatible,
        "complementary": report.complementary,
        "pvm_commute": pvm_commute(p, q, tol),
        "bijection": report.matched_bijection,
        "models": [model_to_dict(p_ins), model_to_dict(q_ins)],
    }
    return (0 if compatible else 1), out


def _cmd_witness(args, tol: Tolerances) -> tuple[int, dict]:
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
        report = verifier_inclusion_harness(args.seed, args.dim, args.trials, tol)
    else:
        report = classical_theorem_harness(args.seed, args.dim, args.trials, tol)
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
    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key, inner in value.items():
                emit(f"{prefix}{key}.", inner)
        else:
            print(f"{prefix.rstrip('.')}: {_short(value)}")

    for key, value in out.items():
        if key in ("model", "models", "support_basis", "witness", "state", "cases"):
            continue
        emit(f"{key}.", value)


def _short(value):
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, list) and len(value) > 8:
        return f"[{len(value)} entries]"
    return value


def _holds_object(items: list) -> bool:
    """True iff a dict sits at some depth of the nested list ``items``;
    each level is one scan of the level's types."""
    while items:
        types = set(map(type, items))
        if dict in types:
            return True
        if list not in types:
            return False
        if types != {list}:
            items = [x for x in items if type(x) is list]
        items = list(chain.from_iterable(items))
    return False


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, except that a list holding no object
    (a matrix, a vector, a list of labels) prints on one line through the C
    encoder. Reports hold only string keys, dicts, lists and scalars."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in value.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and _holds_object(value):
        return "[\n" + ",\n".join(inner + _dumps(v, inner) for v in value) + f"\n{indent}]"
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
