import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcomplement as qc
from qcomplement.cli import main
from qcomplement.compatibility import _HARNESS_DIM_LIMIT
from qcomplement.serialize import model_to_dict
from helpers import PLUS, qubit_x, qutrit_basis_proj, qutrit_fine, z_instrument


@pytest.fixture
def models(tmp_path):
    def write(name, value):
        path = tmp_path / name
        path.write_text(json.dumps(model_to_dict(value)))
        return str(path)

    z = z_instrument()
    paths = {
        "z": write("z.json", z),
        "x": write("x.json", qubit_x().base),
        "fine": write("fine.json", qutrit_fine().base),
        "coarse": write(
            "coarse.json",
            qc.from_pvm({"low": qutrit_basis_proj(0),
                         "high": qutrit_basis_proj(1) + qutrit_basis_proj(2)}).base,
        ),
        "witness": write("w.json", qc.self_witness(z)),
        "state0": write("state0.json", qc.basis_state(2, 0)),
        "plus": write("plus.json", qc.pure_state(PLUS)),
        "classical": write("classical.json", qc.fine_grained_instrument(2)),
    }
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_bad_input(err):
    """An exit 2 names the input as bad; it is never a caught fault of the package."""
    assert "error: " in err, err
    assert "internal error" not in err, err


class TestValidate:
    def test_valid_instrument(self, models, capsys):
        code, out = run_json(capsys, ["--json", "validate", models["z"]])
        assert code == 0 and out["valid"] is True
        assert out["schema"] == "qcomplement/3"

    def test_invalid_instrument(self, tmp_path, capsys):
        doc = model_to_dict(z_instrument())
        doc["outcomes"].pop()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["--json", "validate", str(path)])
        assert code == 1 and out["valid"] is False and out["problems"]

    def test_classical_instrument(self, models, capsys):
        code, out = run_json(capsys, ["--json", "validate", models["classical"]])
        assert code == 0 and out["valid"] is True

    def test_missing_file_is_structural(self, capsys):
        assert main(["validate", "/nonexistent/thing.json"]) == 2
        assert_bad_input(capsys.readouterr().err)

    def test_witness(self, capsys):
        code, out = run_json(capsys, ["--json", "validate", str(MODELS / "z_self_witness.json")])
        assert code == 0 and out["valid"] is True and out["problems"] == []

    def test_trace_increasing_witness_realisation(self, tmp_path, capsys):
        # C's first outcome times 3 is trace-increasing; the witness used to
        # validate as true because only instruments were checked.
        doc = json.loads((MODELS / "z_self_witness.json").read_text())
        kraus = doc["C"]["outcomes"][0]["kraus"]
        kraus[0] = (3 * np.array(kraus[0])).tolist()
        path = tmp_path / "bad_witness.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["--json", "validate", str(path)])
        assert code == 1 and out["valid"] is False
        assert out["problems"] == [
            "C: outcome 'z0' is not trace-non-increasing",
            "C: summed effect differs from identity by 8.000e+00 (limit 1.0e-08)",
        ]

    def test_incomplete_witness_post_processing(self, tmp_path, capsys):
        doc = json.loads((MODELS / "z_self_witness.json").read_text())
        doc["post"]["z1"]["outcomes"].pop()
        path = tmp_path / "bad_post.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["--json", "validate", str(path)])
        assert code == 1 and out["valid"] is False
        assert out["problems"] and all(p.startswith("post 'z1': ") for p in out["problems"])


class TestClassify:
    def test_elementary_instrument(self, models, capsys):
        code, out = run_json(capsys, ["--json", "classify", models["z"]])
        assert code == 0
        assert out["valid"] and out["repeatable"] and out["elementary"]
        assert out["projector_ranks"] == {"z0": 1, "z1": 1}

    def test_non_elementary_exits_one(self, tmp_path, capsys):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ins = qc.instrument_from_operations([("u", qc.QuantumOperation(2, 2, (x,)))])
        path = tmp_path / "unitary.json"
        path.write_text(json.dumps(model_to_dict(ins)))
        code, out = run_json(capsys, ["--json", "classify", str(path)])
        assert code == 1
        assert out["valid"] is True and out["repeatable"] is False

    def test_classical(self, models, capsys):
        code, out = run_json(capsys, ["--json", "classify", models["classical"]])
        assert code == 0 and out["elementary"] is True

    def test_weight_below_prob_eq_is_no_support(self, tmp_path, capsys):
        # diag(0, 1, 4e-9) passes the repeatability and atomicity checks; its
        # 4e-9 eigenvalue belongs to no verifier support.
        diagonals = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 4e-9], "c": [0.0, 0.0, 1.0 - 4e-9]}
        ins = qc.Instrument(3, 3, {x: qc.QuantumOperation(3, 3, (np.diag(v),)) for x, v in diagonals.items()})
        path = tmp_path / "near.json"
        path.write_text(json.dumps(model_to_dict(ins)))
        code, out = run_json(capsys, ["--json", "classify", str(path)])
        assert code == 0 and out["projector_ranks"] == {"a": 1, "b": 1, "c": 1}
        code, out = run_json(capsys, ["--json", "comp", str(path), str(path)])
        assert code == 1 and out["bijection"] == {"a": "a", "b": "b", "c": "c"}


class TestVerifiers:
    def test_support_only(self, models, capsys):
        code, out = run_json(capsys, ["--json", "verifiers", models["z"], "--outcome", "z0"])
        assert code == 0 and out["support_dimension"] == 1

    def test_with_verifying_state(self, models, capsys):
        code, out = run_json(
            capsys,
            ["--json", "verifiers", models["z"], "--outcome", "z0", "--state", models["state0"]],
        )
        assert code == 0
        report = out["verifier_report"]
        assert report["is_verifier"] and report["outcome"] == "z0"
        assert list(report) == ["outcome", "probability", "is_verifier", "is_strong"]
        assert report["is_strong"] and out["schema"] == "qcomplement/3"

    def test_with_failing_state(self, models, capsys):
        code, out = run_json(
            capsys,
            ["--json", "verifiers", models["z"], "--outcome", "z0", "--state", models["plus"]],
        )
        assert code == 1
        assert out["verifier_report"]["is_verifier"] is False

    def test_unknown_outcome(self, models, capsys):
        assert main(["verifiers", models["z"], "--outcome", "nope"]) == 2
        assert_bad_input(capsys.readouterr().err)


class TestComp:
    def test_z_vs_x(self, models, capsys):
        code, out = run_json(capsys, ["--json", "comp", models["z"], models["x"]])
        assert code == 0
        assert out["complementary"] is True
        assert out["bijection"] is None
        assert out["witness"] is not None
        assert all(v["kind"] == "strong" for v in out["degree_table"].values())
        for verdict in out["degree_table"].values():
            assert all(abs(p - 0.5) < 1e-9 for p in verdict["probabilities"].values())

    def test_z_vs_itself(self, models, capsys):
        code, out = run_json(capsys, ["--json", "comp", models["z"], models["z"]])
        assert code == 1
        assert out["complementary"] is False
        assert out["bijection"] == {"z0": "z0", "z1": "z1"}

    def test_non_elementary_input_is_structural(self, models, tmp_path, capsys):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ins = qc.instrument_from_operations([("u", qc.QuantumOperation(2, 2, (x,)))])
        path = tmp_path / "unitary.json"
        path.write_text(json.dumps(model_to_dict(ins)))
        assert main(["comp", str(path), models["z"]]) == 2
        assert_bad_input(capsys.readouterr().err)


class TestCompat:
    def test_fine_vs_coarse(self, models, capsys):
        code, out = run_json(capsys, ["--json", "compat", models["fine"], models["coarse"]])
        assert code == 1
        assert out["compatible"] is False
        assert out["pvm_commute"] is True
        assert out["complementary"] is True

    def test_z_vs_z(self, models, capsys):
        code, out = run_json(capsys, ["--json", "compat", models["z"], models["z"]])
        assert code == 0 and out["compatible"] is True


class TestWitness:
    def test_self_witness(self, models, capsys):
        code, out = run_json(
            capsys, ["--json", "witness", models["z"], models["z"], models["witness"]]
        )
        assert code == 0 and out["valid"] is True
        assert out["max_residual"] <= 1e-10

    def test_mismatched_target(self, models, capsys):
        code = main(["witness", models["fine"], models["z"], models["witness"]])
        assert code == 2
        assert_bad_input(capsys.readouterr().err)


class TestHarness:
    def test_quantum(self, capsys):
        code, out = run_json(
            capsys,
            ["--json", "harness", "--theory", "quantum", "--dim", "2", "--trials", "15",
             "--seed", "3"],
        )
        assert code == 0
        assert out["violations"] == 0
        assert out["generator"] == "pcg64" and out["seed"] == 3

    @pytest.mark.parametrize("theory", ["quantum", "classical"])
    def test_dimension_past_the_cap_exits_2(self, capsys, theory):
        code = main(["harness", "--theory", theory, "--dim", str(10**12), "--trials", "1",
                     "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"must be at most {_HARNESS_DIM_LIMIT}" in err

    @pytest.mark.parametrize("theory, dim, digest", [
        ("quantum", "3", "01f90661274cae66"),
        ("quantum", "4", "586324d3df7425d3"),
        ("quantum", "6", "3642ba85f2416610"),
        ("classical", "6", "f458190d8a78ab5e"),
        ("classical", "12", "69a919d5d54aa43f"),
    ])
    def test_seeded_report_is_stable(self, capsys, theory, dim, digest):
        code = main(["--json", "harness", "--theory", theory, "--dim", dim,
                     "--trials", "200", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        # The digests pin the report bytes as first printed, under schema
        # qcomplement/1; since then only the schema string has moved.
        out = out.replace('"schema": "qcomplement/3"', '"schema": "qcomplement/1"', 1)
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)

    @pytest.mark.parametrize("dim, digest", [
        ("6", "7ba6bdaa5f2774c4"),
        ("12", "6465140d79481f2d"),
    ])
    def test_seeded_classical_report_at_loose_tolerance_is_stable(self, capsys, dim, digest):
        # At prob_eq = 0.49 many split composites fall under the threshold,
        # so these pins also fix which entries the classical batch reads.
        code = main(["--json", "--tol", "4.9e6", "harness", "--theory", "classical",
                     "--dim", dim, "--trials", "200", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)

    @pytest.mark.parametrize("theory, dim, digest", [
        ("quantum", "3", "01f90661274cae66"),
        ("quantum", "4", "586324d3df7425d3"),
        ("quantum", "6", "3642ba85f2416610"),
        ("classical", "6", "f458190d8a78ab5e"),
        ("classical", "12", "69a919d5d54aa43f"),
    ])
    def test_seeded_report_opens_no_numpy_stream(self, capsys, monkeypatch, theory, dim, digest):
        # The batches derive every chunk's streams in one pass; the pinned
        # reports must come out with SeededGenerator.rng refusing to open one.
        def refuse(gen):
            raise RuntimeError("a numpy stream was opened")

        monkeypatch.setattr(qc.SeededGenerator, "rng", property(refuse))
        code = main(["--json", "harness", "--theory", theory, "--dim", dim,
                     "--trials", "200", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        out = out.replace('"schema": "qcomplement/3"', '"schema": "qcomplement/1"', 1)
        assert hashlib.sha256(out.encode()).hexdigest().startswith(digest)


class TestGlobalFlags:
    def test_tol_scaling_accepts_roughened_instrument(self, tmp_path, capsys):
        doc = model_to_dict(z_instrument())
        doc["outcomes"][0]["kraus"][0][0][0][0] = 1.0 - 3e-8
        path = tmp_path / "rough.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert main(["--tol", "100", "validate", str(path)]) == 0
        capsys.readouterr()

    def test_human_output_mentions_verdict(self, models, capsys):
        code = main(["classify", models["z"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "elementary: True" in out


Z_MODEL = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "z.json")
X_MODEL = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "x.json")


@pytest.mark.parametrize("entry, codes", [
    # Beyond the entry cap: bad input. Before the cap, 1e200 overflowed to NaN
    # and comp called this instrument elementary and complementary to x.
    (1e200, (2, 2, 2)),
    # At the cap the arithmetic stays finite: an invalid, non-repeatable map.
    (1e30, (1, 1, 2)),
])
def test_huge_kraus_entry(entry, codes, tmp_path, capsys):
    doc = json.loads(Path(Z_MODEL).read_text())
    doc["outcomes"][0]["kraus"][0][0][0] = [entry, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    got = []
    for argv in (["validate", str(path)], ["classify", str(path)], ["comp", str(path), X_MODEL]):
        got.append(main(argv))
        if got[-1] == 2:
            assert_bad_input(capsys.readouterr().err)
    capsys.readouterr()
    assert tuple(got) == codes


def _one_by_one_instrument(dim_in="1", entry="[1, 0]"):
    return ('{"kind": "quantum-instrument", "dim_in": %s, "dim_out": 1, '
            '"outcomes": [{"label": "a", "kraus": [[[%s]]]}]}' % (dim_in, entry))


def _nested_instrument(depth):
    """An instrument whose outcomes are one array nested ``depth`` deep."""
    return ('{"kind": "quantum-instrument", "dim_in": 1, "dim_out": 1, "outcomes": '
            + "[" * depth + "]" * depth + "}")


@pytest.mark.parametrize("depth", [1000, 100000])
def test_deeply_nested_model_exits_2(depth, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_nested_instrument(depth))
    assert main(["classify", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--tol", "0", "classify", Z_MODEL],
    ["--tol", "-1", "classify", Z_MODEL],
    ["--tol", "nan", "classify", Z_MODEL],
    ["--tol", "1e7", "classify", Z_MODEL],
    ["harness", "--theory", "quantum", "--dim", "3", "--trials", "5", "--seed", "-5"],
    ["harness", "--theory", "classical", "--dim", "3", "--trials", "5", "--seed", "-5"],
    # Past the harness dimension cap; the check comes before any allocation.
    ["harness", "--theory", "quantum", "--dim", str(10**12), "--trials", "1", "--seed", "1"],
    ["harness", "--theory", "classical", "--dim", str(10**12), "--trials", "1", "--seed", "1"],
    # Model texts, written to a file: an integer too large for a float, and
    # JSON booleans where a count or a number belongs.
    ["validate", _one_by_one_instrument(entry="[1%s, 0]" % ("0" * 400))],
    ["validate", _one_by_one_instrument(dim_in="true")],
    ["validate", _one_by_one_instrument(entry="[true, false]")],
    # Deeper than the JSON decoder's recursion limit.
    ["classify", _nested_instrument(1000)],
])
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    if argv[-1].startswith("{"):
        model = tmp_path / "model.json"
        model.write_text(argv[-1])
        argv = [*argv[:-1], str(model)]
    src = str(Path(qc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-m", "qcomplement", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 2
    assert "Traceback" not in child.stderr
    assert_bad_input(child.stderr)


MODELS = Path(Z_MODEL).parent
JSON_COMMANDS = [
    *(["validate", str(path)] for path in sorted(MODELS.glob("*.json"))),
    *(["classify", str(MODELS / name)] for name in
      ("z.json", "x.json", "qutrit_fine.json", "qutrit_coarse.json", "classical_bit.json")),
    ["verifiers", str(MODELS / "z.json"), "--outcome", "z0"],
    ["verifiers", str(MODELS / "z.json"), "--outcome", "z0", "--state", str(MODELS / "state_zero.json")],
    ["verifiers", str(MODELS / "x.json"), "--outcome", "x+", "--state", str(MODELS / "state_plus.json")],
    ["comp", str(MODELS / "z.json"), str(MODELS / "x.json")],
    ["comp", str(MODELS / "qutrit_fine.json"), str(MODELS / "qutrit_coarse.json")],
    ["compat", str(MODELS / "z.json"), str(MODELS / "z.json")],
    ["compat", str(MODELS / "qutrit_fine.json"), str(MODELS / "qutrit_coarse.json")],
    ["witness", str(MODELS / "z.json"), str(MODELS / "z.json"), str(MODELS / "z_self_witness.json")],
    ["harness", "--theory", "quantum", "--dim", "2", "--trials", "3", "--seed", "1"],
    ["harness", "--theory", "classical", "--dim", "3", "--trials", "3", "--seed", "1"],
]


def _holds_object(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and any(_holds_object(v) for v in value))


def _object_free_lists(value):
    """The outermost nonempty lists in ``value`` with no object at any depth."""
    if isinstance(value, list) and value and not _holds_object(value):
        yield value
    elif isinstance(value, (dict, list)):
        for inner in value.values() if isinstance(value, dict) else value:
            yield from _object_free_lists(inner)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(
    Path(a).name if "/" in a else a for a in argv))
def test_json_report_prints_each_object_free_list_on_one_line(argv, capsys, monkeypatch):
    code = main(["--json", *argv])
    text = capsys.readouterr().out
    monkeypatch.setattr("qcomplement.cli._dumps", lambda out: json.dumps(out, indent=2))
    assert main(["--json", *argv]) == code
    parent_style = capsys.readouterr().out
    doc = json.loads(text)
    # The same document, and the indent-2 text is exactly what re-indenting gives.
    assert doc == json.loads(parent_style)
    assert json.dumps(doc, indent=2) + "\n" == parent_style
    lines = text.splitlines()
    flat = list(_object_free_lists(doc))
    for value in flat:
        one_line = json.dumps(value)
        assert any(line.endswith((one_line, one_line + ",")) for line in lines)
    # Each such list takes one line instead of its indent-2 lines.
    saved = sum(len(json.dumps(value, indent=2).splitlines()) - 1 for value in flat)
    assert len(lines) == len(parent_style.splitlines()) - saved


# Each report's top-level keys, after "schema" and "command", in print order.
REPORT_KEYS = {
    "validate": ["valid", "problems"],
    "classify": ["valid", "repeatable", "atomic", "elementary", "projector_ranks"],
    "classify classical": ["valid", "elementary", "canonical_order"],
    "verifiers": ["outcome", "support_dimension", "support_basis"],
    "verifiers --state": ["outcome", "support_dimension", "support_basis", "verifier_report"],
    "comp": ["complementary", "bijection", "witness", "degree_table", "reverse_degree_table"],
    "compat": ["compatible", "complementary", "pvm_commute", "bijection"],
    "witness": ["valid", "threshold", "realisation_residuals", "simulation_residuals",
                "max_residual"],
    "harness": ["theory", "seed", "generator", "dim", "trials", "filtered_trials",
                "checked_cases", "violations", "cases"],
}


def _keys_at_any_depth(value):
    if isinstance(value, dict):
        yield from value
        value = list(value.values())
    if isinstance(value, list):
        for inner in value:
            yield from _keys_at_any_depth(inner)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(
    Path(a).name if "/" in a else a for a in argv))
def test_report_keys_are_pinned(argv, capsys):
    """A report carries the verdict and what it rests on, never a copy of
    an input file."""
    main(["--json", *argv])
    doc = json.loads(capsys.readouterr().out)
    shape = argv[0]
    if shape == "classify" and argv[1].endswith("classical_bit.json"):
        shape += " classical"
    if "--state" in argv:
        shape += " --state"
    assert list(doc) == ["schema", "command", *REPORT_KEYS[shape]]
    assert doc["schema"] == "qcomplement/3" and doc["command"] == argv[0]
    assert not {"model", "models", "state"} & set(_keys_at_any_depth(doc))


def test_closed_stdout_keeps_the_verdict(tmp_path):
    """A reader that stops early, as ``head`` does, gets the verdict's exit
    code and no traceback, though the report overflows the pipe buffer."""
    paths = []
    for seed in (0, 1):
        path = tmp_path / f"rank1_d32_seed{seed}.json"
        pvm = qc.random_pvm(32, [1] * 32, qc.SeededGenerator(seed))
        path.write_text(json.dumps(model_to_dict(pvm.base)))
        paths.append(str(path))
    argv = [sys.executable, "-m", "qcomplement", "--json", "comp", *paths]
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).resolve().parents[1])}
    # Read in full, the report must outgrow a pipe buffer (64 KiB on Linux);
    # otherwise the early close below never breaks the pipe.
    full = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert full.returncode == 0 and len(full.stdout) > 65536
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.read(1)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        code = child.wait(timeout=120)
    assert first == b"{"
    assert code == 0 and "Traceback" not in stderr


def _labelled_z(tmp_path, label) -> str:
    """The z model with its first outcome relabelled, written as ASCII JSON."""
    doc = json.loads(Path(Z_MODEL).read_text())
    doc["outcomes"][0]["label"] = label
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("label, encoding, shown", [
    ("\ud800", "utf-8", "\\ud800"),
    ("\u00e9", "ascii", "\\xe9"),
    ("\u00e9", "utf-8", "\u00e9"),
])
def test_human_report_escapes_what_stdout_cannot_encode(label, encoding, shown, tmp_path):
    """A label stdout cannot encode prints as a backslash escape, under the
    verdict's exit code and with no traceback; one it can prints as is."""
    argv = [sys.executable, "-m", "qcomplement", "classify", _labelled_z(tmp_path, label)]
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).resolve().parents[1]),
           "PYTHONIOENCODING": encoding}
    child = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")
    assert f"\natomic.{shown}: True\n".encode(encoding) in child.stdout


def test_human_report_into_a_string_buffer_keeps_a_lone_surrogate(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", _labelled_z(tmp_path, "\ud800")]) == 0
    assert "\natomic.\ud800: True\n" in out.getvalue()


# Runs ``python -m qcomplement <argv>`` in this child through runpy, then
# prints the package's loaded submodules as the last line of stdout.
_LOADED_AFTER_MAIN = """
import json, runpy, sys
sys.argv = ["qcomplement", *sys.argv[1:]]
try:
    runpy.run_module("qcomplement", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qcomplement."))))
"""
_LOADED_AFTER_IMPORT = """
import json, sys
import qcomplement
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qcomplement."))))
"""
# The modules no quantum validate or classify needs.
DEFERRED = {"classical", "compatibility", "complementarity", "sampling", "verifiers"}


def _loaded(code: str, *argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return {name.removeprefix("qcomplement.")
            for name in json.loads(child.stdout.splitlines()[-1])}


@pytest.mark.parametrize("argv, loads, skips", [
    (["validate", Z_MODEL], set(), DEFERRED),
    (["classify", Z_MODEL], set(), DEFERRED),
    (["--json", "validate", "/nonexistent/thing.json"], set(), DEFERRED),
    (["comp", Z_MODEL, X_MODEL], {"complementarity"}, {"compatibility", "classical", "sampling"}),
    (["validate", str(MODELS / "classical_bit.json")], {"classical"}, {"compatibility"}),
], ids=["validate", "classify", "missing-file", "comp", "validate-classical"])
def test_subcommand_loads_only_what_it_uses(argv, loads, skips):
    loaded = _loaded(_LOADED_AFTER_MAIN, *argv)
    assert {"cli", "serialize"} | loads <= loaded
    assert not loaded & skips


def test_import_loads_no_submodule():
    assert _loaded(_LOADED_AFTER_IMPORT) == set()


# Prints whether numpy.ma is loaded after the PVM paths, or "preloaded" where
# importing numpy alone loads it (numpy 1.x).
_MASKED_AFTER_PVM_PATHS = """
import sys
import numpy as np
if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
import qcomplement as qc
qc.from_pvm({f"p{i}": np.diag(np.eye(8)[i]) for i in range(8)})
qc.random_pvm(4, [1, 1, 2], qc.SeededGenerator(0))
qc.verifier_inclusion_harness(0, 3, 2)
print("numpy.ma" in sys.modules)
"""


def test_pvm_paths_import_no_masked_arrays():
    # The first np.unique call imports numpy.ma: about 15 ms and 1.4 MB.
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-c", _MASKED_AFTER_PVM_PATHS], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    if child.stdout.split() == ["preloaded"]:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert child.stdout.split() == ["False"]


PUBLIC_NAMES = [
    "ChoiMatrix", "ClassicalInstrument", "ClassicalOperation", "ClassicalState",
    "ComplementarityReport", "DEFAULT_TOL", "DegenerateSeedError", "DegreeKind",
    "DegreeVerdict", "DensityState", "ElementaryProperty", "ExclusionWitness",
    "ExtractionError", "HarnessReport", "Instrument", "InstrumentReport", "ModelFile",
    "ModelParseError", "OperationReport", "OutcomePartition", "PreconditionError",
    "QuantumOperation", "SchemaError", "SeededGenerator", "StructureError",
    "Tolerances", "VerifierReport", "WitnessReport", "apply",
    "are_compatible_elementary", "are_complementary", "basis_state", "canonical_verifier",
    "choi", "choi_distance", "classical_is_elementary", "classical_theorem_harness",
    "classical_verifier_checks", "classify_relation", "coarse_grain", "coarse_grain_ops",
    "compose_seq", "degree_for_verifier", "fine_grained_instrument", "from_pvm",
    "haar_unitary", "identity_operation", "instrument_from_operations",
    "instrument_verifier_report", "is_atomic", "is_psd", "is_repeatable",
    "is_strong_verifier", "is_verifier", "maximally_mixed", "model_to_dict",
    "outcome_entropy", "point_mass", "postprocessing_witness", "projector_operation",
    "pure_state", "pvm_commute", "random_density", "random_instrument", "random_pvm",
    "random_rank_profile", "range_subspace", "self_witness", "to_elementary",
    "trace_out_ancilla", "validate_classical",
    "validate_instrument", "validate_operation", "verifier_inclusion_harness",
    "verifier_points", "verifier_support", "verify_witness", "zero_operation",
]


class TestPackageNamespace:
    def test_public_names_are_pinned(self):
        assert sorted(qc.__all__) == PUBLIC_NAMES
        assert set(PUBLIC_NAMES) <= set(dir(qc))

    def test_each_name_is_its_submodule_attribute(self):
        for name in PUBLIC_NAMES:
            module = importlib.import_module(f"qcomplement.{qc._EXPORTS[name]}")
            assert getattr(qc, name) is getattr(module, name), name

    def test_submodules_resolve(self):
        for name in sorted(set(qc._EXPORTS.values())):
            assert getattr(qc, name) is importlib.import_module(f"qcomplement.{name}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qc.no_such_name  # noqa: B018
