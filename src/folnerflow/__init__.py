"""folnerflow: exact-arithmetic constructions and verification for subset
families on finite windows of discrete metric spaces.

The library turns weighted families (multisets over a space, or
equivalently positive integer 0-chains) into plain subset families with
controlled symmetric-difference/intersection ratios, along three routes:

  * flattening: shift tower mass along a tree flow toward the frontier
    until every chain is 0,1-valued (spaces whose neighbourhood-graph
    components all reach the frontier);
  * tail transport: push multiset levels down bounded-multiplicity escape
    sequences (spaces with no Folner sets but a uniform tail cover);
  * quotient/box constructions: translate families on cyclic quotients,
    projection from interval products, pushforward along injective coarse
    maps.

Everything is exact: distances, thresholds and ratios are rationals, and
a pair with empty intersection gets a distinguished infinite ratio that
fails every comparison.

Every public name below is loaded on first use (PEP 562): `import
folnerflow` costs no submodule import, and `folnerflow.X` imports only the
module that defines X. Each CLI child starts a fresh interpreter, so a
module-level import added here, in `cli` or in `pipeline` slows every one.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {  # public name -> the submodule that defines it
    **dict.fromkeys(("Chain", "FamilyParams", "FamilyReport", "INFINITE_RATIO", "IndexedFamily",
                     "MultisetFamily", "base_and_towers", "family_from_multisets", "ratio",
                     "verify_family"), "chains"),
    **dict.fromkeys(("BoxFamilyReport", "BoxSpaceModel", "CoarseMapModel", "boundary",
                     "box_family", "build_box_space", "foelner_search", "group_foelner_family",
                     "project_family", "pushforward_injective", "subspace"), "constructions"),
    **dict.fromkeys(("BranchingTooLow", "ConfigError", "EmptyImage", "FlowEscaped",
                     "FolnerflowError", "InternalInvariantError", "NotCoarselyUnbounded",
                     "PipelineStageError", "TailTooShort", "TranslateEscapesWindow",
                     "WindowTooSmall"), "errors"),
    **dict.fromkeys(("ball_family", "perturbed_cluster_family", "random_multiset_family",
                     "singleton_family", "tent_family"), "families"),
    **dict.fromkeys(("FlattenReport", "FlattenTrace", "flatten", "flatten_family",
                     "shift_step"), "flatten"),
    **dict.fromkeys(("FlowField", "RipsGraph", "build_flow", "build_rips",
                     "check_coarsely_unbounded"), "rips"),
    **dict.fromkeys(("GrowthProfile", "WindowSpace", "cycle_window", "disjoint_union",
                     "generate", "grid_window", "growth_profile", "load_space",
                     "product_with_interval", "regular_tree_window", "save_space",
                     "tree_window"), "space"),
    **dict.fromkeys(("TailCover", "TailCoverReport", "build_tree_tails", "tail_transport",
                     "transport_set", "verify_tail_cover"), "tails"),
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


class _Package(types.ModuleType):
    """Loading a submodule binds it on the package; where the submodule
    shares its name with a public name (`flatten`), the public name wins,
    as it did when this file imported every submodule."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
