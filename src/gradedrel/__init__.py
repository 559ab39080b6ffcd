"""Graded families of nested symmetric relations on finite ground sets:
exact dyadic distance geometry, admissible-hull structure, self-map
dynamics, and a seeded claim falsifier.

`import gradedrel` loads none of the package's modules.  _EXPORTS names
each public name once, under the module that defines it, and __all__ is
their sorted list.  The module __getattr__ (PEP 562) imports a name's
module on its first use and binds the value here, so later reads are
plain attribute reads; a module of the table (`gradedrel.hulls`) resolves
the same way.  `import gradedrel.formats` loads formats and the modules it
imports, and no others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dyadic": ("DyadicValue", "centered_cover_level", "floor_log2"),
    "dynamics": (
        "DichotomyEntry", "DichotomyReport", "InvariantBallReport", "MapCheck", "Orbit",
        "OUTCOME_FIXED", "OUTCOME_MINIMAL_BALL", "OUTCOME_NEITHER",
        "RegularFixedPointReport", "RegularityReport", "VARIANTS", "fixed_points",
        "is_homomorphism", "is_nonexpansive", "ks_dichotomy",
        "minimal_invariant_admissible", "minimal_invariant_balls", "orbit",
        "regular_fixed_point", "regularity_report",
    ),
    "errors": (
        "GradedRelError", "PreconditionError", "ResourceLimitError",
        "StructuralInputError", "UsageError",
    ),
    "formats": (
        "CounterexampleBundle", "Diagnostic", "FormatError", "parse_bundle",
        "parse_distance_matrix", "parse_selfmap", "parse_system", "serialize_bundle",
        "serialize_distance_matrix", "serialize_selfmap", "serialize_system",
    ),
    "harness": (
        "CLAIMS", "Claim", "Counterexample", "GenParams", "Verdict", "falsify",
        "gen_self_map", "gen_system", "shrink",
    ),
    "hulls": (
        "ARBITRARY_CENTER", "AdmissibleSet", "NormalityCriteria", "PAPER_COV",
        "RadiiReport", "StructureReport", "admissible_family_bits", "ball",
        "check_compact_structure", "check_normal_structure",
        "check_spherical_completeness", "covering_level", "enumerate_admissible",
        "hull", "min_distance_clique", "normality_criteria", "radii",
    ),
    "pointset": ("PointSet", "SelfMap", "identity_map", "iter_bits"),
    "relations": (
        "AxiomReport", "Grade", "GradeMatrix", "LevelList", "Relation",
        "RelationalSystem", "TOP", "Top", "Window", "check_axiom", "compact_to_grades",
        "compose", "default_labels", "expand_level", "grade_str", "make_system",
        "to_level_list", "validate_level_list",
    ),
    "semimetric": (
        "ClassificationReport", "TripleWitness", "classify", "delta",
        "ingest_distance_matrix", "metric_ball_collapse", "minimal_inframetric_constant",
        "mu", "reconstruct_level",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here as well
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
