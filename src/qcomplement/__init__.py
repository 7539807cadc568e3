"""Decision procedures for finite quantum and classical instruments:
elementary-property classification, verifier states, complementarity degrees,
and weak-compatibility checks."""

from .classical import (
    ClassicalInstrument,
    ClassicalOperation,
    ClassicalState,
    classical_is_elementary,
    classical_theorem_harness,
    classical_verifier_checks,
    fine_grained_instrument,
    point_mass,
    validate_classical,
    verifier_points,
)
from .compatibility import (
    ExclusionWitness,
    HarnessReport,
    WitnessReport,
    are_compatible_elementary,
    postprocessing_witness,
    pvm_commute,
    self_witness,
    trace_out_ancilla,
    verifier_inclusion_harness,
    verify_witness,
)
from .complementarity import (
    ComplementarityReport,
    DegreeKind,
    DegreeVerdict,
    are_complementary,
    classify_relation,
    degree_for_verifier,
    outcome_entropy,
)
from .errors import (
    DegenerateSeedError,
    ExtractionError,
    ModelParseError,
    PreconditionError,
    SchemaError,
    StructureError,
)
from .instruments import (
    ElementaryProperty,
    Instrument,
    InstrumentReport,
    OutcomePartition,
    coarse_grain,
    from_pvm,
    instrument_from_operations,
    is_repeatable,
    to_elementary,
    validate_instrument,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    SubspaceRelation,
    Tolerances,
    is_psd,
    range_subspace,
    subspace_contained,
    subspace_relation,
)
from .operations import (
    ChoiMatrix,
    DensityState,
    OperationReport,
    QuantumOperation,
    apply,
    basis_state,
    choi,
    choi_distance,
    coarse_grain_ops,
    compose_seq,
    identity_operation,
    is_atomic,
    maximally_mixed,
    projector_operation,
    pure_state,
    validate_operation,
    zero_operation,
)
from .sampling import (
    SeededGenerator,
    haar_unitary,
    random_density,
    random_instrument,
    random_pvm,
    random_rank_profile,
)
from .serialize import ModelFile, model_to_dict
from .verifiers import (
    VerifierReport,
    canonical_verifier,
    instrument_verifier_report,
    is_strong_verifier,
    is_verifier,
    verifier_support,
)

__version__ = "0.1.0"
