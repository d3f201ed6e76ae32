"""Koszul cycles, homology and regularity of monomial ideals.

Exact linear algebra over Q or GF(p), explicit cycle families for powers of
maximal ideals, Betti tables of Segre-Veronese rings, and falsification-style
verification suites for the regularity and generation bounds.
"""

import importlib

from .fields import QQ, FieldError, PrimeField, RationalField, parse_field
from .rings import (
    MonomialIdeal,
    RingConfig,
    component_basis,
    component_dim,
    ideal_from_dict,
    monomial_quotient_dim,
    power_containment,
    power_ideal,
    quotient_component_dim,
)
from .homology import InfeasibleError, KoszulComplex, generates_up_to
from .veronese import (
    BettiTable,
    IndexResult,
    SegreVeroneseSpec,
    green_lazarsfeld_index,
    veronese_betti,
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

# the chain algebra, the Tor layer, the cycle families and the harness load on
# first use of one of their names (PEP 562), so that a process that computes
# only tables, indices or homology dimensions never compiles them
_LAZY = {
    **dict.fromkeys(("exterior", "KoszulChain", "alpha_map", "boundary", "gamma_map", "sign",
                     "sort_bracket", "wedge"), "exterior"),
    **dict.fromkeys(("regularity", "GradedModule", "borel_closure", "cycle_module",
                     "homology_module", "is_strongly_stable", "reg_monomial_ideal", "tor_dims",
                     "tor_violations"), "regularity"),
    **dict.fromkeys(("cycles", "gen2_families", "multi2_failures", "symmetrized_cycle",
                     "z1_generator", "z1_generator_family", "z1_products"), "cycles"),
    **dict.fromkeys(("harness", "SuiteReport", "probe_q1", "random_monomial_ideal",
                     "run_suite"), "harness"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
