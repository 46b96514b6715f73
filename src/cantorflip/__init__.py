"""Random and deterministic subsets of Cantor sets built on labeled M-ary trees.

The construction: take an equicontractive system of N interval maps with
ratio r, label every edge of the full M-ary tree with a symbol in {1..N},
and keep, at each level, the basic intervals whose label word some root
path carries. Random i.i.d. labels give a statistically self-similar set;
marking every m-th edge gives a deterministic one. The modules split along
those lines: interval geometry and label words (`ifs`), simulation
(`stochastic`), exact recursions (`exact`), dimension bounds (`bounds`),
the periodic construction (`detfrac`), and a CLI (`cli`).
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
    dim_Fm,
    dump_words,
    graph_words,
    level_of,
    rho,
    rows_within,
    sft_count,
    sft_words,
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
    OccupancyMap,
    ProbVector,
    TrialStats,
    energy_estimate,
    estimate_dim,
    evolve,
    run_trials,
    z_distribution,
    z_n,
)

__version__ = "0.1.0"
