"""Random and deterministic subsets of Cantor sets built on labeled M-ary trees.

The construction: take an equicontractive system of N interval maps with
ratio r, label every edge of the full M-ary tree with a symbol in {1..N},
and keep, at each level, the basic intervals whose label word some root
path carries. Random i.i.d. labels give a statistically self-similar set;
marking every m-th edge gives a deterministic one. The modules split along
those lines: tree indexing (`symbolic`), interval geometry (`ifs`),
simulation (`stochastic`), exact recursions (`exact`), dimension bounds
(`bounds`), the periodic construction (`detfrac`), and a CLI (`cli`).
"""

from .bounds import (
    BoundsReport,
    LambdaRoot,
    SandwichCheck,
    classify,
    entropy,
    entropy_threshold,
    geometric_threshold,
    lower_bound,
    phi,
    sandwich_check,
    solve_lambda,
    upper_bound,
    xi,
)
from .detfrac import (
    DeterministicSpec,
    GrowthEstimate,
    ModGraph,
    dim_Fm,
    dimension_rows,
    dump_words,
    from_label_symbols,
    graph_words,
    growth_rate,
    level_of,
    mod_graph,
    rho,
    sft_count,
    sft_words,
    to_label_symbols,
    tree_words,
)
from .errors import BudgetError
from .exact import (
    PiSequence,
    a_probability,
    brute_force_a,
    enumerate_z_distribution,
    expected_zn,
    gamma_fixed_point,
    multinomial_bound,
    pi_sequence,
)
from .ifs import IfsSpec, Interval, canonical_spec, dim_C, interval
from .stochastic import (
    LabelSource,
    OccupancyMap,
    ProbVector,
    TrialStats,
    energy_estimate,
    estimate_dim,
    evolve,
    occupancy_from_source,
    run_trials,
    z_distribution,
    z_n,
)
from .symbolic import (
    EQUAL,
    GREATER,
    LESS,
    LabelWord,
    PathWord,
    child_indices,
    compare_star,
    kappa,
    kappa_inverse,
)

__version__ = "0.1.0"
