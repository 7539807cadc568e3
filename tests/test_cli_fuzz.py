"""Exit-code contract under malformed model documents.

Each example takes one of the demo model files, mutates one entry (drops a
key or an array element, or puts a boolean, a string, null, a huge number or
a nested list where a value belongs) and runs ``cli.main`` in-process with the
mutated document in one argument slot of a subcommand. The result must be
0, 1 or 2; no other exception may escape, 2 must come with an error message,
and 1 (a false verdict) only with the verdict in the report.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcomplement.cli import main

MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(MODELS.glob("*.json"))}
NAMES = sorted(DOCUMENTS)
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

REPLACEMENTS = st.sampled_from([True, False, "x", None, 10**400, 1e308, -1e200, [[[]]], {}])


@st.composite
def mutated_documents(draw):
    """One demo document with one entry dropped or replaced. The entry's depth
    is drawn first and uniformly, so a top-level field and a single matrix
    entry, seven levels down, are both hit often."""
    name = draw(st.sampled_from(NAMES))
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
    return json.dumps(doc)


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
    assert code in (0, 1, 2), (argv, text, code)
    if code == 2:
        assert err.startswith("error: ") or "error:" in err, (argv, text, err)
        assert out == ""
    else:
        report = json.loads(out)
        assert report["command"] == command
        if code == 1:
            assert verdict_key in report, (argv, text, report)
