"""Verification workbench for initial-coefficient bounds of paired
bi-univalent function classes.

Layers, bottom to top:

* :mod:`bibounds.series`  truncated power-series algebra (exact and float)
* :mod:`bibounds.classes` class functionals, targets, expansion triples
* :mod:`bibounds.solver`  unified coefficient elimination
* :mod:`bibounds.bounds`  printed vs derived bound formulas and the audit
* :mod:`bibounds.harness` extremal sweeps and end-to-end checks
* :mod:`bibounds.cli`     the ``bibounds`` command
"""

__version__ = "0.1.0"

from .series import (
    DEFAULT_ORDER,
    EXACT,
    FLOAT,
    ModeMismatchError,
    QComplex,
    TruncatedSeries,
    agree,
    mode_of,
)
from .classes import (
    CLASS_KINDS,
    ClassSpec,
    ClassTriple,
    MindaTarget,
    SchlichtCoeffs,
    SchwarzParams,
    caratheodory_kernel,
    expansion_f,
    expansion_g,
    functional,
    inverse_triple,
    invert_schlicht,
    sample_caratheodory,
    subordinate_compose,
    target_preset,
    triple,
)
from .solver import (
    EliminationResult,
    PairSpec,
    consistency_residual,
    eliminate,
    elimination_denominator,
    implied_b2,
    linked_b1,
    rhs_pair,
    sigma_tilde,
    solve_forward,
)
from .bounds import (
    A3_MULTIPLIER,
    SIGMA_SCALE,
    THEOREM_TAGS,
    BoundReport,
    Discrepancy,
    audit,
    derived_sigma,
    generic_a2_bound,
    generic_a3_bound,
    printed_a2_bound,
    printed_a3_bound,
    printed_sigma,
    reduction_table,
    report,
    theorem_pair,
    theorem_tag,
)
from .harness import (
    BoundViolationError,
    CheckResult,
    DegeneratePairError,
    EndToEndReport,
    RandomCheckReport,
    SweepResult,
    check_bounds_random,
    end_to_end,
    run_identity_suites,
    sweep_a2,
    sweep_a3,
)
