"""Decision procedures for finite quantum and classical instruments:
elementary-property classification, verifier states, complementarity degrees,
and weak-compatibility checks.

``import qcomplement`` loads no submodule: each public name imports its
submodule on first use (PEP 562), so a caller pays only for what it reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "classical": (
            "ClassicalInstrument", "ClassicalOperation", "ClassicalState",
            "classical_is_elementary", "classical_theorem_harness",
            "classical_verifier_checks", "fine_grained_instrument", "point_mass",
            "validate_classical", "verifier_points",
        ),
        "compatibility": (
            "ExclusionWitness", "HarnessReport", "WitnessReport",
            "are_compatible_elementary", "postprocessing_witness", "pvm_commute",
            "self_witness", "trace_out_ancilla", "verifier_inclusion_harness",
            "verify_witness",
        ),
        "complementarity": (
            "ComplementarityReport", "DegreeKind", "DegreeVerdict", "are_complementary",
            "classify_relation", "degree_for_verifier", "outcome_entropy",
        ),
        "errors": (
            "DegenerateSeedError", "ExtractionError", "ModelParseError",
            "PreconditionError", "SchemaError", "StructureError",
        ),
        "instruments": (
            "ElementaryProperty", "Instrument", "InstrumentReport", "OutcomePartition",
            "coarse_grain", "from_pvm", "instrument_from_operations", "is_repeatable",
            "to_elementary", "validate_instrument",
        ),
        "linalg": ("DEFAULT_TOL", "Tolerances", "is_psd", "range_subspace"),
        "operations": (
            "ChoiMatrix", "DensityState", "OperationReport", "QuantumOperation", "apply",
            "basis_state", "choi", "choi_distance", "coarse_grain_ops", "compose_seq",
            "identity_operation", "is_atomic", "maximally_mixed", "projector_operation",
            "pure_state", "validate_operation", "zero_operation",
        ),
        "sampling": (
            "SeededGenerator", "haar_unitary", "random_density", "random_instrument",
            "random_pvm", "random_rank_profile",
        ),
        "serialize": ("ModelFile", "model_to_dict"),
        "verifiers": (
            "VerifierReport", "canonical_verifier", "instrument_verifier_report",
            "is_strong_verifier", "is_verifier", "verifier_support",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
