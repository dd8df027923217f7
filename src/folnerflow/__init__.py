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
"""

from .chains import (
    Chain,
    FamilyParams,
    FamilyReport,
    INFINITE_RATIO,
    IndexedFamily,
    MultisetFamily,
    base_and_towers,
    family_from_multisets,
    l1_distance,
    ratio,
    verify_family,
)
from .constructions import (
    BoxFamilyReport,
    BoxSpaceModel,
    CoarseMapModel,
    boundary,
    box_family,
    build_box_space,
    foelner_search,
    group_foelner_family,
    project_family,
    pushforward_injective,
    subspace,
)
from .errors import (
    BranchingTooLow,
    ConfigError,
    EmptyImage,
    FlowEscaped,
    FolnerflowError,
    InternalInvariantError,
    NotCoarselyUnbounded,
    PipelineStageError,
    TailTooShort,
    TranslateEscapesWindow,
    WindowTooSmall,
)
from .families import (
    ball_family,
    perturbed_cluster_family,
    random_multiset_family,
    singleton_family,
    tent_family,
)
from .flatten import (
    FlattenReport,
    FlattenTrace,
    flatten,
    flatten_family,
    shift_step,
)
from .rips import (
    FlowField,
    RipsGraph,
    build_flow,
    build_rips,
    check_coarsely_unbounded,
)
from .space import (
    GrowthProfile,
    WindowSpace,
    cycle_window,
    disjoint_union,
    generate,
    grid_window,
    growth_profile,
    load_space,
    product_with_interval,
    regular_tree_window,
    save_space,
    tree_window,
)
from .tails import (
    TailCover,
    TailCoverReport,
    build_tree_tails,
    tail_transport,
    transport_set,
    verify_tail_cover,
)

__version__ = "0.1.0"
