"""Completely positive maps between matrix algebras.

Core objects: :class:`~cpmaps.cp_map.CpMap` (Choi/Kraus representations),
minimal Stinespring dilations with Radon-Nikodym derivatives of dominated
maps, a quasi-purity decision pipeline with witnesses, minimal CP
completions of partially specified maps by two independent routes, and
the rigidity machinery that turns equality-against-an-operator into
genuine equality.

``import cpmaps`` loads none of the modules below.  Each public name is
imported from its home module on first use (PEP 562 module
``__getattr__``) and then kept in this namespace, so ``cpmaps.is_quasipure``
loads :mod:`cpmaps.quasipure` and the modules it imports, and nothing else.
``from cpmaps import *`` and ``cpmaps.gallery`` work as before.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each home module and the public names it defines; ``gallery`` is
#: exported as a module
_EXPORTS = {
    "linalg": ("Tolerance", "DEFAULT_TOL"),
    "cp_map": ("CpMap", "MapClass", "apply", "kraus_to_choi",
               "choi_to_kraus", "minimal_kraus", "is_cp", "choi_rank",
               "classify", "maps_close"),
    "stinespring": ("StinespringTriple", "RnDerivative", "representation",
                    "minimal_stinespring", "map_from_dilation",
                    "map_from_contraction", "factor_matrix",
                    "cyclic_subspace_dim", "cyclic_projection",
                    "reducing_projection", "dominates", "radon_nikodym"),
    "quasipure": ("QuasiPurityVerdict", "is_quasipure"),
    "completion": ("BlockCompletionProblem", "PartialCpMap",
                   "block_completable", "minimal_block_completion",
                   "cp_completable", "minimal_cp_completion_choi",
                   "minimal_cp_completion_stinespring"),
    "ae_equiv": ("EquivalenceContext", "DecompositionResult",
                 "RigidityVerdict", "support_projection", "r_equivalent",
                 "decompose_along", "rigidity_check", "ae_equal_rigidity",
                 "counterexample_construct", "forced_equality_scan"),
    "gallery": (),
    "errors": ("ToolkitError", "NonHermitianInput", "DimensionMismatch",
               "NotPSD", "NotCP", "ZeroMap", "NotDominated",
               "InputNotReduced", "NotCompletable", "MalformedPartialMap",
               "SeedNotACompletion", "RNotProjection", "WitnessInvalid",
               "MalformedDocument", "HypothesisFailed"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "gallery"]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
