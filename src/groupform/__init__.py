"""Strategic network formation between coordinating groups.

Library surface: the society data model and payoffs (`model`), closed-form
regime bounds (`thresholds`), pairwise-stability checks (the multigroup
clique-tree verdict among them) and exhaustive enumeration (`stability`),
welfare maximization (`efficiency`), link formation dynamics (`dynamics`),
and the command-line front end (`cli`).
"""

from .model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    ValidationError,
    format_edge_list,
    in_invariant_set,
    parse_edge_list,
    payoff,
    payoffs,
    welfare,
)
from .thresholds import (
    RegimeKind,
    RegimePrediction,
    RegimeUndefinedError,
    below_clique_bound,
    classify_two_group_efficient,
    classify_two_group_stable,
    clique_link_gain,
    efficient_boundaries,
    extra_link_gain,
    redundancy_bounds,
    shortcut_gain,
    stability_efficiency_overlap,
    stable_boundaries,
)
from .stability import (
    CapExceededError,
    PoAUndefinedError,
    SearchSpace,
    defeats,
    enumerate_stable,
    full_graph_space,
    interconnection_space,
    is_pairwise_stable,
    minimally_connected_sufficient,
    price_of_anarchy,
)
from .efficiency import (
    ConsolidationCollisionError,
    consolidate_representatives,
    efficient_search,
)
from .dynamics import (
    Action,
    DynamicsTrace,
    Scripted,
    SeededUniform,
    in_invariant_set_run,
    run,
    step,
)

__version__ = "0.1.0"
