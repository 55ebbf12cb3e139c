"""Completely positive maps between matrix algebras.

Core objects: :class:`~cpmaps.cp_map.CpMap` (Choi/Kraus representations),
minimal Stinespring dilations with Radon-Nikodym derivatives of dominated
maps, a quasi-purity decision pipeline with witnesses, minimal CP
completions of partially specified maps by two independent routes, and
the rigidity machinery that turns equality-against-an-operator into
genuine equality.
"""

from .linalg import DEFAULT_TOL, Tolerance
from .errors import (
    DimensionMismatch,
    HypothesisFailed,
    InputNotReduced,
    MalformedDocument,
    MalformedPartialMap,
    NonHermitianInput,
    NotCompletable,
    NotCP,
    NotDominated,
    NotPSD,
    RNotProjection,
    SeedNotACompletion,
    ToolkitError,
    WitnessInvalid,
    ZeroMap,
)
from .cp_map import (
    CpMap,
    MapClass,
    apply,
    choi_rank,
    choi_to_kraus,
    classify,
    is_cp,
    kraus_to_choi,
    maps_close,
    minimal_kraus,
)
from .stinespring import (
    RnDerivative,
    StinespringTriple,
    cyclic_projection,
    cyclic_subspace_dim,
    dominates,
    factor_matrix,
    map_from_contraction,
    map_from_dilation,
    minimal_stinespring,
    radon_nikodym,
    reducing_projection,
    representation,
)
from .quasipure import (
    QuasiPurityVerdict,
    is_quasipure,
)
from .completion import (
    BlockCompletionProblem,
    PartialCpMap,
    block_completable,
    cp_completable,
    minimal_block_completion,
    minimal_cp_completion_choi,
    minimal_cp_completion_stinespring,
)
from .ae_equiv import (
    DecompositionResult,
    EquivalenceContext,
    RigidityVerdict,
    ae_equal_rigidity,
    counterexample_construct,
    decompose_along,
    forced_equality_scan,
    r_equivalent,
    rigidity_check,
    support_projection,
)
from . import gallery

__version__ = "0.1.0"

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CpMap",
    "MapClass",
    "apply",
    "kraus_to_choi",
    "choi_to_kraus",
    "minimal_kraus",
    "is_cp",
    "choi_rank",
    "classify",
    "maps_close",
    "StinespringTriple",
    "RnDerivative",
    "representation",
    "minimal_stinespring",
    "map_from_dilation",
    "map_from_contraction",
    "factor_matrix",
    "cyclic_subspace_dim",
    "cyclic_projection",
    "reducing_projection",
    "dominates",
    "radon_nikodym",
    "QuasiPurityVerdict",
    "is_quasipure",
    "BlockCompletionProblem",
    "PartialCpMap",
    "block_completable",
    "minimal_block_completion",
    "cp_completable",
    "minimal_cp_completion_choi",
    "minimal_cp_completion_stinespring",
    "EquivalenceContext",
    "DecompositionResult",
    "RigidityVerdict",
    "support_projection",
    "r_equivalent",
    "decompose_along",
    "rigidity_check",
    "ae_equal_rigidity",
    "counterexample_construct",
    "forced_equality_scan",
    "gallery",
    "ToolkitError",
    "NonHermitianInput",
    "DimensionMismatch",
    "NotPSD",
    "NotCP",
    "ZeroMap",
    "NotDominated",
    "InputNotReduced",
    "NotCompletable",
    "MalformedPartialMap",
    "SeedNotACompletion",
    "RNotProjection",
    "WitnessInvalid",
    "MalformedDocument",
    "HypothesisFailed",
]
