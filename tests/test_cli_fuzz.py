"""Exit-code contract under malformed model documents.

Each example takes one of the demo model files, mutates one entry (drops a
key or an array element, or puts a boolean, a string, null, a huge number, a
nested list or an array nested 100000 deep where a value belongs) and runs
``cli.main`` in-process with the mutated document in one argument slot of a
subcommand, or as the ``--state`` file of ``verifiers``. The result must be 0,
1 or 2; no other exception may escape, 2 must come with an error message that
names the input, not an internal error, and 1 (a false verdict) only with the
verdict in the report. A last test draws whole argument vectors: every
subcommand, with arguments missing, extra or unknown, and bad option values.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcomplement.cli import main
from qcomplement.compatibility import _HARNESS_DIM_LIMIT

MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(MODELS.glob("*.json"))}
NAMES = sorted(DOCUMENTS)
STATES = [name for name in NAMES if DOCUMENTS[name]["kind"] == "state"]
# The demo states are qubit states: every outcome of every qubit instrument.
QUBIT_OUTCOMES = [
    (name, entry["label"]) for name, doc in DOCUMENTS.items()
    if doc["kind"] == "quantum-instrument" and doc["dim_in"] == 2
    for entry in doc["outcomes"]
]
LABELS = sorted(
    {entry["label"] for doc in DOCUMENTS.values() for entry in doc.get("outcomes", ())}
) + ["missing"]

# Subcommand, its number of model arguments, and the key holding its verdict.
COMMANDS = {
    "validate": (1, "valid"),
    "classify": (1, "elementary"),
    "verifiers": (1, "verifier_report"),
    "comp": (2, "complementary"),
    "compat": (2, "compatible"),
    "witness": (3, "valid"),
}

# An array nested deeper than the JSON decoder's recursion limit, also when
# hypothesis raises that limit while a test runs. json.dumps would recurse as
# deep, so a placeholder string stands in for it and is replaced in the text.
DEEP = "<deep array>"
DEEP_ARRAY = "[" * 100000 + "]" * 100000
REPLACEMENTS = st.sampled_from(
    [True, False, "x", None, 10**400, 1e308, -1e200, [[[]]], {}, DEEP])


@st.composite
def mutated_documents(draw, names=NAMES):
    """One of the named demo documents with one entry dropped or replaced. The
    entry's depth is drawn first and uniformly, so a top-level field and a
    single matrix entry, seven levels down, are both hit often."""
    name = draw(st.sampled_from(names))
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    depth = draw(st.integers(0, 7))
    container = doc
    while True:
        keys = list(container) if isinstance(container, dict) else range(len(container))
        deeper = [k for k in keys if isinstance(container[k], (dict, list)) and container[k]]
        if depth == 0 or not deeper:
            key = draw(st.sampled_from(keys))
            break
        container, depth = container[draw(st.sampled_from(deeper))], depth - 1
    if draw(st.booleans()):
        del container[key]
    else:
        replacement = draw(REPLACEMENTS)
        if draw(st.booleans()):
            replacement = [replacement]
        container[key] = replacement
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP_ARRAY)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    files=st.lists(st.sampled_from(NAMES), min_size=3, max_size=3),
    slot=st.integers(0, 2),
    text=mutated_documents(),
    outcome=st.sampled_from(LABELS),
    with_state=st.sampled_from([None, "state_zero.json", "state_plus.json"]),
)
def test_mutated_models_keep_the_exit_code_contract(
    command, files, slot, text, outcome, with_state
):
    arity, verdict_key = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "mutated.json"
        mutated.write_text(text)
        paths = [str(MODELS / name) for name in files[:arity]]
        paths[slot % arity] = str(mutated)
        argv = ["--json", command, *paths]
        if command == "verifiers":
            argv += ["--outcome", outcome]
            if with_state is not None:
                argv += ["--state", str(MODELS / with_state)]
        code, out, err = _run(argv)
    _assert_contract(command, verdict_key, argv, text, code, out, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(QUBIT_OUTCOMES), text=mutated_documents(STATES))
def test_mutated_states_keep_the_exit_code_contract(target, text):
    model, outcome = target
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "state.json"
        mutated.write_text(text)
        argv = ["--json", "verifiers", str(MODELS / model), "--outcome", outcome,
                "--state", str(mutated)]
        code, out, err = _run(argv)
    _assert_contract("verifiers", COMMANDS["verifiers"][1], argv, text, code, out, err)


# A demo document whose bytes are not UTF-8: in UTF-16 or UTF-32 with a
# byte-order mark, in Latin-1 with a non-ASCII string, or with a byte that no
# UTF-8 text holds (a stray continuation byte, a cut sequence, 0xff, an encoded
# surrogate) spliced in anywhere. It is bad input: exit 2, with the offset of
# the first bad byte. A UTF-8 byte-order mark is rejected as malformed JSON.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    name=st.sampled_from(NAMES),
    slot=st.integers(0, 2),
    encoding=st.sampled_from(["utf-16", "utf-32", "latin-1", "splice", "utf-8-sig"]),
    spliced=st.sampled_from([b"\x80", b"\xc3", b"\xff", b"\xed\xa0\x80"]),
    where=st.floats(0.0, 1.0),
)
def test_non_utf8_models_exit_2(command, name, slot, encoding, spliced, where):
    text = json.dumps(DOCUMENTS[name], ensure_ascii=False)
    if encoding == "latin-1":
        data = (text[:-1] + ', "note": "\u00e9"}').encode("latin-1")
    elif encoding == "splice":
        data = text.encode()
        cut = int(where * len(data))
        data = data[:cut] + spliced + data[cut:]
    else:
        data = text.encode(encoding)
    arity, verdict_key = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_bytes(data)
        paths = [str(MODELS / name) for name in ("z.json", "z.json", "z_self_witness.json")[:arity]]
        paths[slot % arity] = str(model)
        argv = [command, *paths] + (["--outcome", "z0"] if command == "verifiers" else [])
        code, out, err = _run(argv)
    assert (code, out) == (2, ""), (argv, data, code, err)
    if encoding == "utf-8-sig":
        assert err == "error: invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    else:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            assert err == f"error: file is not UTF-8: {exc.reason} at byte {exc.start}\n", (argv, data)
        else:
            raise AssertionError(f"{data!r} is UTF-8")


# Option values around every boundary --tol and the harness sizes have. A
# harness call's memory grows as the cube of --dim, so a dimension above 3 is
# one past the cap, which exits 2 before anything is allocated.
TOLS = ["0", "-1", "nan", "inf", "1e-320", "1e7", "x", "1e-3", "100"]
SIZES = ["-1", "0", "1", "2", "3", "2.5", "x"]
DIMS = SIZES + [str(_HARNESS_DIM_LIMIT + 1), str(10**12)]
SEEDS = ["-5", "0", "7", str(2**70), "x"]
PATHS = [str(MODELS / name) for name in NAMES] + [str(MODELS / "missing.json"), str(MODELS)]
VERDICT_KEYS = {command: key for command, (_, key) in COMMANDS.items()} | {"harness": "violations"}


@st.composite
def argument_vectors(draw):
    """``--json``, maybe ``--tol``, one of the seven subcommands and its
    arguments, with at most one argument then dropped, added or unknown.
    Returns the subcommand and the argument vector."""
    command = draw(st.sampled_from(sorted(VERDICT_KEYS)))
    head = ["--json"]
    if draw(st.booleans()):
        head += ["--tol", draw(st.sampled_from(TOLS))]
    if command == "harness":
        values = {
            "--theory": st.sampled_from(["quantum", "classical", "bogus"]),
            "--dim": st.sampled_from(DIMS),
            "--trials": st.sampled_from(SIZES),
            "--seed": st.sampled_from(SEEDS),
        }
        args = [[option, draw(value)] for option, value in values.items()]
    else:
        args = [[path] for path in draw(st.lists(
            st.sampled_from(PATHS), min_size=COMMANDS[command][0], max_size=COMMANDS[command][0]
        ))]
        if command == "verifiers":
            args.append(["--outcome", draw(st.sampled_from(LABELS))])
            if draw(st.booleans()):
                args.append(["--state", draw(st.sampled_from(PATHS))])
    change = draw(st.sampled_from([None, None, "missing", "extra", "unknown"]))
    if change == "missing":
        del args[draw(st.integers(0, len(args) - 1))]
    elif change == "extra":
        args.append([draw(st.sampled_from(PATHS + ["3"]))])
    elif change == "unknown":
        args.insert(draw(st.integers(0, len(args))), [draw(st.sampled_from(["--bogus", "-z"]))])
    return command, head + [command] + [a for group in args for a in group]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=argument_vectors())
def test_argument_vectors_keep_the_exit_code_contract(drawn):
    command, argv = drawn
    code, out, err = _run(argv)
    _assert_contract(command, VERDICT_KEYS[command], argv, None, code, out, err)


def _assert_contract(command, verdict_key, argv, text, code, out, err):
    assert code in (0, 1, 2), (argv, text, code)
    if code == 2:
        assert err.startswith("error: ") or "error:" in err, (argv, text, err)
        # Bad input is named as such, never caught as a fault of the package.
        assert "internal error" not in err, (argv, text, err)
        assert out == ""
    else:
        report = json.loads(out)
        assert report["command"] == command
        if code == 1:
            assert verdict_key in report, (argv, text, report)


# A fault inside the package is not a verdict: the kernel raising an
# exception that no handler expects exits 2 with one line and no traceback.
# An interrupt is not caught.
def test_internal_error_exits_2_with_one_line(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    code, out, err = _run(["classify", str(MODELS / "qutrit_fine.json")])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal error: LinAlgError: Eigenvalues did not converge")
    assert "Traceback" not in err


def test_interrupt_propagates(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(np.linalg, "eigh", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run(["classify", str(MODELS / "qutrit_fine.json")])
