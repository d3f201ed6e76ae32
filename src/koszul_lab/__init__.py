"""Koszul cycles, homology and regularity of monomial ideals.

Exact linear algebra over Q or GF(p), explicit cycle families for powers of
maximal ideals, Betti tables of Segre-Veronese rings, and falsification-style
verification suites for the regularity and generation bounds.
"""

from .fields import QQ, FieldError, PrimeField, RationalField, parse_field
from .rings import (
    MonomialIdeal,
    RingConfig,
    borel_closure,
    component_basis,
    component_dim,
    ideal_from_dict,
    is_strongly_stable,
    monomial_quotient_dim,
    power_containment,
    power_ideal,
    quotient_component_dim,
    reg_monomial_ideal,
)
from .exterior import (
    KoszulChain,
    alpha_map,
    boundary,
    gamma_map,
    sign,
    sort_bracket,
    wedge,
)
from .homology import (
    GradedModule,
    InfeasibleError,
    KoszulComplex,
    cycle_module,
    generates_up_to,
    homology_module,
    tor_dims,
    tor_violations,
)
from .cycles import (
    gen2_families,
    multi2_failures,
    symmetrized_cycle,
    z1_generator,
    z1_generator_family,
    z1_products,
)
from .veronese import (
    BettiTable,
    IndexResult,
    SegreVeroneseSpec,
    green_lazarsfeld_index,
    veronese_betti,
)
from .harness import (
    SuiteReport,
    probe_q1,
    random_monomial_ideal,
    run_suite,
)

__all__ = [
    "QQ",
    "FieldError",
    "PrimeField",
    "RationalField",
    "parse_field",
    "MonomialIdeal",
    "RingConfig",
    "borel_closure",
    "component_basis",
    "component_dim",
    "ideal_from_dict",
    "is_strongly_stable",
    "monomial_quotient_dim",
    "power_containment",
    "power_ideal",
    "quotient_component_dim",
    "reg_monomial_ideal",
    "KoszulChain",
    "alpha_map",
    "boundary",
    "gamma_map",
    "sign",
    "sort_bracket",
    "wedge",
    "GradedModule",
    "InfeasibleError",
    "KoszulComplex",
    "cycle_module",
    "generates_up_to",
    "homology_module",
    "tor_dims",
    "tor_violations",
    "gen2_families",
    "multi2_failures",
    "symmetrized_cycle",
    "z1_generator",
    "z1_generator_family",
    "z1_products",
    "BettiTable",
    "IndexResult",
    "SegreVeroneseSpec",
    "green_lazarsfeld_index",
    "veronese_betti",
    "SuiteReport",
    "probe_q1",
    "random_monomial_ideal",
    "run_suite",
]

__version__ = "0.1.0"
