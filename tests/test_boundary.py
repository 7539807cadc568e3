"""The boundary where Python callers hand in arrays.

Every public entry point that takes an array converts it once, through
``linalg._as_array``: what numpy's own conversion refuses (a non-numeric
string, an arbitrary object, a ragged nesting) is a ``StructureError`` naming
the input. A projector family (``from_pvm``, the ``ElementaryProperty``
constructor) is read entries first, then shapes, then the PVM checks.
"""

import numpy as np
import pytest

import qcomplement as qc
from qcomplement import instruments
from qcomplement.errors import StructureError
from helpers import E0, E1, loop_check_pvm, proj, z_instrument

NOT_ARRAYS = {"string": "abc", "object": object(), "ragged": [[1.0, 0.0], [0.0]]}

# Each entry point with the bad value where one array goes, and the name its
# refusal gives that array.
ENTRY_POINTS = {
    "QuantumOperation": (lambda m: qc.QuantumOperation(2, 2, (m,)), "kraus matrix"),
    "ChoiMatrix": (lambda m: qc.ChoiMatrix(1, 2, m), "choi matrix"),
    "DensityState": (lambda m: qc.DensityState((2,), m), "state matrix"),
    "pure_state": (qc.pure_state, "state vector"),
    "projector_operation": (qc.projector_operation, "projector"),
    "from_pvm": (lambda m: qc.from_pvm({"z0": m, "z1": proj(E1)}), "projector 'z0'"),
    "ElementaryProperty": (
        lambda m: qc.ElementaryProperty(z_instrument(), {"z0": m, "z1": proj(E1)}), "projector 'z0'"),
    "ClassicalOperation": (lambda m: qc.ClassicalOperation(2, 2, m), "classical matrix"),
    "ClassicalState": (lambda m: qc.ClassicalState(2, m), "probs"),
    "is_psd": (qc.is_psd, "matrix"),
    "range_subspace": (qc.range_subspace, "matrix"),
}


@pytest.mark.parametrize("value", NOT_ARRAYS.values(), ids=NOT_ARRAYS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_entry_point_refuses_what_numpy_cannot_convert(entry, value):
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(StructureError, match=f"^{name} must be a rectangular array of numbers"):
        call(value)


@pytest.mark.parametrize("entry", ["QuantumOperation", "ClassicalOperation", "ClassicalState", "pure_state"])
def test_an_int_past_a_double_is_refused(entry):
    call, name = ENTRY_POINTS[entry]
    value = [10**400, 0] if entry in ("ClassicalState", "pure_state") else [[10**400, 0], [0, 1]]
    with pytest.raises(StructureError, match=f"^{name} must be a rectangular array of numbers a double can hold"):
        call(value)


def test_a_numeric_input_is_converted_as_before():
    assert qc.is_psd([[1, 0], [0, True]])
    assert qc.ClassicalState(2, [[0.25], [0.75]]).probs.tolist() == [0.25, 0.75]
    assert qc.pure_state([[0.0], [2.0]]).matrix.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    # A classical matrix is a C-ordered float copy of a Fortran-ordered one.
    arr = qc.ClassicalOperation(2, 2, np.asfortranarray(np.eye(2))).matrix
    assert arr.dtype == float and arr.flags.c_contiguous


def test_classical_state_keeps_its_own_nan_message():
    # ClassicalState applies no entry cap: its probability checks name NaN.
    with pytest.raises(StructureError, match="probabilities must be nonnegative"):
        qc.ClassicalState(2, [np.nan, 1.0])


def nan_matrix():
    m = proj(E1)
    m[0, 0] = np.nan
    return m


# Projector families on C^2 whose second projector z1 the boundary refuses.
FAMILIES = {
    "ragged": ([[0.0, 0.0], [0.0]], "projector 'z1' must be a rectangular array of numbers"),
    "wrong shape": (np.eye(3), r"projector 'z1' has shape \(3, 3\), expected \(2, 2\)"),
    "1-D": ([0.0, 1.0], "projector 'z1' must be 2-dimensional, got ndim=1"),
    "3-D": (proj(E1)[None], "projector 'z1' must be 2-dimensional, got ndim=3"),
    "NaN": (nan_matrix(), r"projector 'z1' entries must be finite and at most 1e\+30 in magnitude"),
    "1e31": (1e31 * proj(E1), r"projector 'z1' entries must be finite and at most 1e\+30 in magnitude"),
}
BUILDS = {
    "from_pvm": qc.from_pvm,
    "constructor": lambda mats: qc.ElementaryProperty(z_instrument(), mats),
}


class TestProjectorBoundary:
    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_names_the_refused_projector(self, family, build):
        value, message = FAMILIES[family]
        with pytest.raises(StructureError, match=f"^{message}"):
            build({"z0": proj(E0), "z1": value})

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
    def test_entries_come_before_shapes(self, build):
        with pytest.raises(StructureError, match="projector 'z1' entries must be finite"):
            build({"z0": np.eye(3), "z1": nan_matrix()})

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
    def test_shapes_come_before_the_pvm_checks(self, build):
        # z0 is not idempotent, but z1's shape is named first.
        mats = {"z0": 0.5 * np.eye(2), "z1": np.eye(3)}
        want = "projector 'z1' has shape (3, 3), expected (2, 2)"
        assert loop_check_pvm(mats, 2) == want
        with pytest.raises(StructureError) as info:
            build(mats)
        assert str(info.value) == want

    def test_a_stack_of_one_wrong_shape_names_its_first_projector(self):
        with pytest.raises(StructureError, match=r"projector 'z0' has shape \(3, 3\), expected \(2, 2\)"):
            qc.ElementaryProperty(z_instrument(), {"z0": np.eye(3), "z1": np.eye(3)})

    def test_from_pvm_reads_d_from_the_first_matrix(self):
        with pytest.raises(StructureError, match=r"projector 'a' has shape \(2, 3\), expected \(2, 2\)"):
            qc.from_pvm({"a": np.eye(2, 3), "b": np.eye(2, 3)})

    def test_the_first_pair_refused_is_named(self):
        # A label given twice is refused where the pair-by-pair read meets it.
        with pytest.raises(StructureError, match="duplicate outcome label 'a'"):
            qc.from_pvm([("a", proj(E0)), ("a", proj(E1)), ("b", "abc")])
        with pytest.raises(StructureError, match="projector 'a' must be a rectangular array"):
            qc.from_pvm([("a", "abc"), ("a", proj(E1))])

    def test_returns_one_read_only_stack_whose_rows_are_held(self):
        mats, stack = instruments._read_only_family([("z0", proj(E0)), ("z1", proj(E1))], 2)
        assert stack.shape == (2, 2, 2) and not stack.flags.writeable
        assert all(m.base is stack and not m.flags.writeable for m in mats.values())
        assert list(mats) == ["z0", "z1"]
