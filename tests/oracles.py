"""Reference oracles that the tests check the engine against.

Each is a closed formula or a bound computed without Koszul homology, so an
agreement with the engine is independent evidence.  The test files import
them as `from oracles import ...`: pytest puts this directory on sys.path.
"""

from functools import reduce
from itertools import combinations
from math import comb

from koszul_lab.rings import MonomialIdeal, component_dim, mon_lcm, total_deg
from koszul_lab.veronese import SegreVeroneseSpec


def taylor_caps(I: MonomialIdeal) -> dict:
    """Degree caps from the Taylor complex: t_i(S/I) <= max deg lcm of i gens."""
    return {
        i: max(total_deg(reduce(mon_lcm, subset)) for subset in combinations(I.gens, i))
        for i in range(1, min(I.r, I.ring.n) + 1)
    }


def quadric_relation_count(spec: SegreVeroneseSpec) -> int:
    """Independent oracle for beta_{1,2}: quadrics through the embedding."""
    ring = spec.ring
    dim_c = component_dim(ring, spec.c)
    dim_2c = component_dim(ring, tuple(2 * a for a in spec.c))
    return comb(dim_c + 1, 2) - dim_2c


def hilbert_alternating_sum(spec: SegreVeroneseSpec, j: int) -> int:
    """sum_i (-1)^i beta_{i,j} of the Segre-Veronese ring R = sum_k S_{kc}
    over T = Sym(S_c), from its Hilbert function alone.

    With N = dim S_c, H_R(t) (1 - t)^N = sum_{i,j} (-1)^i beta_{i,j} t^j, so
    the sum is the coefficient of t^j: sum_k (-1)^k C(N, k) dim S_{(j-k)c}.
    """
    ring, N = spec.ring, component_dim(spec.ring, spec.c)
    return sum(
        (-1) ** k * comb(N, k) * component_dim(ring, tuple((j - k) * a for a in spec.c))
        for k in range(min(j, N) + 1)
    )
