import hashlib
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
from qcomplement.serialize import model_from_text, model_to_dict
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


class TestValidate:
    def test_valid_instrument(self, models, capsys):
        code, out = run_json(capsys, ["--json", "validate", models["z"]])
        assert code == 0 and out["valid"] is True
        assert out["schema"] == "qcomplement/2"

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


class TestClassify:
    def test_elementary_instrument(self, models, capsys):
        code, out = run_json(capsys, ["--json", "classify", models["z"]])
        assert code == 0
        assert out["valid"] and out["repeatable"] and out["elementary"]
        assert out["projector_ranks"] == {"z0": 1, "z1": 1}

    def test_echoed_model_reparses_choi_equal(self, models, capsys):
        code, out = run_json(capsys, ["--json", "classify", models["z"]])
        back = model_from_text(json.dumps(out["model"])).value
        ins = z_instrument()
        for label in ins.labels:
            assert qc.choi_distance(back[label], ins[label]) <= 1e-12

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
        assert report["is_strong"] and out["schema"] == "qcomplement/2"

    def test_with_failing_state(self, models, capsys):
        code, out = run_json(
            capsys,
            ["--json", "verifiers", models["z"], "--outcome", "z0", "--state", models["plus"]],
        )
        assert code == 1
        assert out["verifier_report"]["is_verifier"] is False

    def test_unknown_outcome(self, models):
        assert main(["verifiers", models["z"], "--outcome", "nope"]) == 2


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

    def test_non_elementary_input_is_structural(self, models, tmp_path):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ins = qc.instrument_from_operations([("u", qc.QuantumOperation(2, 2, (x,)))])
        path = tmp_path / "unitary.json"
        path.write_text(json.dumps(model_to_dict(ins)))
        assert main(["comp", str(path), models["z"]]) == 2


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
        out = out.replace('"schema": "qcomplement/2"', '"schema": "qcomplement/1"', 1)
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
    got = tuple(main(argv) for argv in (
        ["validate", str(path)], ["classify", str(path)], ["comp", str(path), X_MODEL]))
    capsys.readouterr()
    assert got == codes


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
    assert "error" in child.stderr
    assert "Traceback" not in child.stderr


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


def test_closed_stdout_keeps_the_verdict(tmp_path):
    """A reader that stops early, as ``head`` does, gets the verdict's exit
    code and no traceback, though the report overflows the pipe buffer."""
    model = tmp_path / "rank1_d32.json"
    model.write_text(json.dumps(model_to_dict(qc.random_pvm(32, [1] * 32, qc.SeededGenerator(0)).base)))
    env = {**os.environ, "PYTHONPATH": str(Path(qc.__file__).resolve().parents[1])}
    with subprocess.Popen([sys.executable, "-m", "qcomplement", "--json", "classify", str(model)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.read(1)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        code = child.wait(timeout=120)
    assert first == b"{"
    assert code == 0 and "Traceback" not in stderr
