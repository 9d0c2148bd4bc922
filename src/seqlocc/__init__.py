"""Sequential LOCC discrimination of bipartite unitary operations.

Builds and verifies discrimination schemes of the interleaved form
X (u_N x v_N) ... X (u_1 x v_1) X applied to a product input state, where
the unknown operation X only ever enters forward: the toolkit never applies
the inverse of the operation being discriminated.
"""

from .arcs import (
    ArcInfo,
    eigenphase_rows,
    min_achievable_overlap,
    parallel_query_count,
    single_query_distinguishable,
    smallest_arc,
    zero_overlap_state,
)
from .config import RunConfig
from .engine import (
    DiscriminationReport,
    LoccSequentialScheme,
    discriminate,
    verify_scheme,
)
from .errors import (
    ArcTooSmall,
    CaseFailure,
    DimensionMismatch,
    DimensionTooSmall,
    GeneratorPrimitive,
    Indistinguishable,
    MalformedScheme,
    MatrixFileError,
    NotUnitary,
    NumericalFailure,
    SeqloccError,
    StageStalled,
    SynthesisFailed,
    TooManyQueries,
)
from .io import dumps_template, loads_template
from .linalg import (
    BipartiteUnitary,
    SpectralDecomposition,
    basis_state,
    dagger,
    eig_unitary,
    kron,
    mat,
    normalize,
    op_distance_mod_phase,
    phase_distance,
    random_unitary,
    swap_operator,
    unitarity_defect,
    validate_unitary,
)
from .sequential import SequentialScheme, build_sequential_scheme, compose_sequential
from .structure import (
    OperatorSchmidtDecomposition,
    PrimitiveForm,
    SymmetrySet,
    build_symmetry_set,
    block_exponential,
    classify_primitive,
    entangling_witness,
    exp_xx_form,
    match_exp_xx,
    operator_schmidt,
    realign,
    symmetry_set_inverts,
    xx_generator,
)
from .synthesis import SynthesisResult, synthesize
from .templates import (
    CircuitTemplate,
    LocalLayer,
    Query,
    QUERY,
    compose_templates,
    evaluate_template,
)

__version__ = "0.1.0"
