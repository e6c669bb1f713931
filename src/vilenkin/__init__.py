"""Computational harmonic analysis on bounded Vilenkin groups.

Finite-depth models of the groups, the Vilenkin character system with a
fast mixed-radix transform, Dirichlet and Fejer kernels, exact L_p and
martingale Hardy-space quasi-norms, executable kernel-identity checks, and
the strong-convergence experiments built on top of them.
"""

from .funcspace import (
    GridFunction,
    conditional_expectation,
    integrate,
    lp_quasinorm,
    lp_quasinorm_rows,
    weak_lp,
)
from .group import (
    GeneratorSequence,
    cylinder_indices,
    from_digits,
    group_add,
    group_sub,
    to_digits,
    variation,
    variation_table,
)
from .hardy import (
    Atom,
    CounterexampleMartingale,
    counterexample_martingale,
    function_hardy_quasinorm,
    is_p_atom,
    maximal_function,
    select_alphas,
    sigma_norm_profile,
    strong_sums,
)
from .identities import CheckReport
from .transform import (
    SpectralVector,
    dirichlet,
    dirichlet_rows,
    fejer_kernel,
    fejer_kernel_rows,
    fejer_mean,
    fejer_mean_rows,
    forward_transform,
    inverse_transform,
    lebesgue_constant,
    lebesgue_constants,
    naive_forward_transform,
    partial_sum,
    partial_sum_rows,
    rademacher,
    synthesize,
    synthesize_rows,
    vilenkin_fn,
)

__version__ = "0.1.0"
