"""Verification suites, corpus generation and counterexample probes.

Every theorem suite is falsification-style: a PASS means no violation was
found inside the certified or capped window recorded with each case.  Reports
serialize to canonical JSON that is byte-identical for identical inputs, so
wall-clock timing is reported separately and never embedded.

A suite is data: a case generator, a default size, a characteristic floor
and a summary (see `Suite`).  One driver, `_run`, validates the request,
seeds the RNG, pulls and indexes the cases, counts redraws and builds the
report of every suite and of `probe_q1`; each case is the dict it prints.

The theorems are statements in characteristic zero, so every suite computes
over the rationals unless a prime field is passed (`--field`); the report
names the field it used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import combinations, product
from typing import Callable

from .cycles import gen2_families, multi2_failures, z1_products
from .exterior import (
    KoszulChain,
    alpha_map,
    boundary,
    formal_boundary,
    gamma_map,
    sign,
    wedge,
)
from .fields import QQ
from .homology import (
    GradedModule,
    InfeasibleError,
    KoszulComplex,
    degrees_upto,
    generates_up_to,
    tor_violations,
)
from .linalg import Echelon
from .rings import (
    MonomialIdeal,
    RingConfig,
    borel_closure,
    monomial_quotient_dim,
    power_containment,
    power_ideal,
    quotient_component_dim,
    reg_monomial_ideal,
    total_deg,
)
from .veronese import SegreVeroneseSpec, veronese_betti

# maincyc checks degrees t(c + 1) .. t(c + 1) + MAINCYC_SLACK; surge
# tabulates degrees 0 .. SURGE_DEGREE
MAINCYC_SLACK = 2
SURGE_DEGREE = 10

# characteristic floor of the suites that reject every prime field
QQ_ONLY = math.inf


class UnknownSuiteError(ValueError):
    pass


@dataclass
class SuiteReport:
    suite: str
    seed: int
    size: int
    field_name: str
    cases: list
    summary: dict = dc_field(default_factory=dict)

    @property
    def verdict(self):
        verdicts = {c["verdict"] for c in self.cases}
        if "violation" in verdicts or "candidate" in verdicts:
            return "violation"
        if "infeasible" in verdicts or not self.cases:  # no case, nothing checked
            return "infeasible"
        return "pass"

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "size": self.size,
            "field": self.field_name,
            "verdict": self.verdict,
            "summary": self.summary,
            "cases": self.cases,
        }


@dataclass(frozen=True)
class Suite:
    """A verification suite as data.

    cases(rng, field) yields (params, verdict, window, details) for each case,
    or None to ask for a redraw; verdict is pass, violation, candidate or
    infeasible.  A prime field of characteristic <= char_floor is rejected.
    summarize(cases) returns counts to add to the report's summary.
    """

    cases: Callable
    size: int
    char_floor: float = 3
    summarize: Callable = lambda cases: {}


def _run(name, suite: Suite, seed, size, field) -> SuiteReport:
    """Validate the request, pull up to `size` cases and build the report."""
    size = suite.size if size is None else size
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if 0 < field.characteristic <= suite.char_floor:
        needs = "0" if suite.char_floor == QQ_ONLY else f"0 or > {suite.char_floor}"
        raise ValueError(f"suite {name} needs characteristic {needs}, got {field.name}")
    cases, redrawn = [], 0
    for case in suite.cases(random.Random(seed), field):
        if case is None:
            redrawn += 1
        else:
            params, verdict, window, details = case
            cases.append({"index": len(cases), "params": params, "verdict": verdict,
                          "window": window, "details": details})
        if len(cases) >= size or redrawn >= 80 * size:
            break
    summary = {"redrawn": redrawn, **suite.summarize(cases)}
    return SuiteReport(name, seed, size, field.name, cases, summary)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "violation"


def ideal_params(I: MonomialIdeal) -> dict:
    return {
        "blocks": list(I.ring.blocks),
        "generators": [list(g) for g in I.gens],
    }


def random_monomial_ideal(rng, ring: RingConfig, max_deg=3, max_gens=4) -> MonomialIdeal:
    """Random monomial ideal from a bounded pool; non-minimal draws collapse."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * ring.n
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(ring.n)] += 1
        gens.append(tuple(exps))
    return MonomialIdeal(ring, gens)


def artinianize(I: MonomialIdeal, power: int, skip=()) -> MonomialIdeal:
    """Add variable powers so that every variable outside `skip` is nilpotent."""
    ring = I.ring
    gens = list(I.gens)
    for k in range(ring.n):
        if k in skip:
            continue
        gens.append(tuple(power if i == k else 0 for i in range(ring.n)))
    return MonomialIdeal(ring, gens)


# ---------------------------------------------------------------------------
# sign and canonical-map suites
# ---------------------------------------------------------------------------


def _signs(rng, field):
    """Associativity and graded anticommutativity of the wedge sign.

    `sign` is called once on each of the 3^6 ordered disjoint pairs of subsets
    of {1..6}.  An assignment of {1..6} to (unused, A, B, C) is such a pair
    (A, B) and a C disjoint from A u B; the checks on all 4^6 of them read the
    signs from that table.
    """
    table, partners = {}, {}
    for slots in product(range(3), repeat=6):
        X, Y = (tuple(x for x, s in enumerate(slots, 1) if s == k) for k in (1, 2))
        table[X, Y] = sign(X, Y)
        partners.setdefault(X, []).append(Y)
    failures, checked = [], 0
    for (A, B), s_ab in table.items():
        AB = tuple(sorted(A + B))
        # graded anticommutativity
        anti = s_ab != (-1) ** (len(A) * len(B)) * table[B, A]
        for C in partners[AB]:
            checked += 1
            BC = tuple(sorted(B + C))
            # associativity of e_A ^ e_B ^ e_C
            if s_ab * table[AB, C] != table[B, C] * table[A, BC]:
                failures.append([list(A), list(B), list(C), "associativity"])
            if anti:
                failures.append([list(A), list(B), list(C), "anticommutativity"])
    params = {"universe": 6, "checked": checked}
    yield params, _verdict(not failures), {"exhaustive": True}, {"failures": failures}


def _random_chain(rng, kz, t, max_extra=2):
    """Random homogeneous chain: random basis degree, random small coefficients."""
    I = kz.ideal
    ring = I.ring
    base = [0] * ring.d
    for i in rng.sample(range(1, I.r + 1), t):
        g = ring.mdeg(I.gens[i - 1])
        base = [a + b for a, b in zip(base, g)]
    w = [0] * ring.n
    for _ in range(rng.randint(0, max_extra)):
        w[rng.randrange(ring.n)] += 1
    alpha = tuple(a + b for a, b in zip(base, ring.mdeg(tuple(w))))
    terms = {}
    for key in kz.basis(t, alpha):
        if rng.random() < 0.5:
            c = rng.randint(-3, 3)
            if c:
                terms[key] = c
    return KoszulChain(I, t, terms), alpha


def _maps(rng, field):
    """phi^2 = 0, the Leibniz rule and the gamma/alpha maps on random chains.

    The chain arithmetic is over the integers, so the suite runs over QQ only.
    """
    while True:
        n = rng.choice([2, 3])
        I = random_monomial_ideal(rng, RingConfig((n,)), max_deg=3, max_gens=8)
        if I.r < 2:
            yield None
            continue
        kz = KoszulComplex(I)
        t = rng.randint(1, min(3, I.r))
        s = rng.randint(1, min(3, I.r - 1))
        f, alpha = _random_chain(rng, kz, t)
        a, _ = _random_chain(rng, kz, s)
        failed = {}

        bf = boundary(f)
        if t >= 2 and not boundary(bf).is_zero():
            failed["phi_squared"] = "nonzero"
        lhs = boundary(wedge(a, f))
        rhs = wedge(boundary(a), f) + wedge(a, bf).scale((-1) ** s)
        if lhs != rhs:
            failed["leibniz"] = "failed"
        if t >= 2:
            gsize = rng.randint(0, t - 1)
            gb, gf = gamma_map(bf, gsize), gamma_map(f, gsize)
            # outer differential: phi o gamma_{s+1} = gamma_s o phi
            # neither side holds a zero chain, so the dicts compare as they are
            if formal_boundary(gamma_map(f, gsize + 1), I) != gb:
                failed["gamma_outer"] = "failed"
            # inner differential commutes up to (-1)^s
            inner = {
                T: boundary(b).scale((-1) ** gsize)
                for T, b in gf.items()
            }
            inner = {T: b for T, b in inner.items() if not b.is_zero()}
            if inner != gb:
                failed["gamma_inner"] = "failed"
            # binomial recombination: sum e_I . b_I = C(t, s) f
            if alpha_map(gf, I, t) != f.scale(math.comb(t, gsize)):
                failed["binomial_recombination"] = "failed"
        cyc = kz.cycle_chains(t, alpha)
        if cyc:
            z = cyc[rng.randrange(len(cyc))]
            gsize = rng.randint(1, t)
            gm = gamma_map(z, gsize)
            if any(not boundary(b).is_zero() for b in gm.values()):
                failed["cycle_parts"] = "failed"
            if alpha_map(gm, I, t) != z.scale(math.comb(t, gsize)):
                failed["alpha_beta"] = "failed"
        params = {"ideal": ideal_params(I), "t": t, "s": s, "degree": list(alpha)}
        yield params, _verdict(not failed), {"random": True}, failed


# ---------------------------------------------------------------------------
# regularity falsification suites
# ---------------------------------------------------------------------------


def _decided_by_stability(cases) -> dict:
    """Checked modules with bound >= |a|: they pass by theorem and cannot falsify."""
    checks = [ch for c in cases for ch in c["window"]["checks"].values()]
    return {"decided_by_stability": sum(ch["bound"] >= ch["stable_degree"] for ch in checks)}


def _tor_checks(draw, rng, field):
    """(params, checks) of one Tor case, or None to redraw.  draw(rng, field)
    gives (I, J or None, params, bounds), or None; t is drawn after it, and
    each (label, bound, i_max) of bounds(t) gets H_t(I; S/J) for "H", else Z_t."""
    drawn = draw(rng, field)
    if drawn is None:
        return None
    I, J, params, bounds = drawn
    t = min(rng.choice([1, 1, 2, 2, 3]), I.r)
    kz = KoszulComplex(I, field, J)
    coeff = {"coeff_ideal": ideal_params(J)} if J else {}
    params = {"ideal": ideal_params(I), **coeff, "t": t, **params}
    return params, [(label, GradedModule(kz, t, label == "H"), bound, i_max)
                    for label, bound, i_max in bounds(t)]


def _tor_suite(draw, size=50, found="violation", summarize=_decided_by_stability) -> Suite:
    """A suite whose cases are Tor checks of Z_t(I; M) or H_t(I; M).

    Each case is drawn by `_tor_checks`.  Each module's Tor is scanned in
    every j - i > bound up to its stability degree |a|, past which it is 0 by
    theorem, so the window is exact and certified.  A case with an entry
    found gets the verdict `found`; a case whose scan builds a piece over the
    complex's ceiling is redrawn.
    """

    def cases(rng, field):
        while True:
            built = _tor_checks(draw, rng, field)
            if built is None:
                yield None
                continue
            params, checks = built
            try:
                violations = [
                    {"check": label, "i": i, "j": j, "dim": d, "bound": bound}
                    for label, module, bound, i_max in checks
                    for i, j, d in tor_violations(module, bound, i_max)
                ]
            except InfeasibleError:
                yield None
                continue
            bounds = {label: {"bound": b, "stable_degree": M.stable_degree}
                      for label, M, b, _ in checks}
            window = {"certified": True, "checks": bounds}
            yield params, found if violations else "pass", window, {"violations": violations}

    return Suite(cases, size, summarize=summarize)


def _smallest_power_degree(I: MonomialIdeal) -> int:
    """Smallest c with m^c inside I and I generated in degrees <= c."""
    c = I.max_gen_degree()
    while not power_containment(I, c):
        c += 1
        if c > 40:
            raise RuntimeError("ideal does not look artinian")
    return c


def _artinian(rng) -> MonomialIdeal:
    """A random ideal in 2 or 3 variables with every variable power added."""
    I = random_monomial_ideal(rng, RingConfig((rng.choice([2, 2, 3]),)), 3, 3)
    return artinianize(I, rng.randint(2, 3))


def _z_and_h(bound_z, c):
    return [("Z", bound_z, None), ("H", bound_z + c - 1, None)]


def _regb(rng, field):
    I = _artinian(rng)
    c = _smallest_power_degree(I)
    return I, None, {"c": c}, lambda t: _z_and_h(t * (c + 1), c)


def _greeny(rng, field):
    I = _artinian(rng)
    c = I.max_gen_degree()
    v = quotient_component_dim(I, c)
    return I, None, {"c": c, "v": v}, lambda t: _z_and_h(t * (c + 1) + v, c)


def _remark_b(rng, field):
    """m^(c + v) lies in I, on greeny's draws; a power-containment fact, so no
    field is used."""
    while True:
        I, _, drawn, _ = _greeny(rng, field)
        power = drawn["c"] + drawn["v"]
        params = {"ideal": ideal_params(I), **drawn}
        window = {"exact": True, "certified": True}
        yield params, _verdict(power_containment(I, power)), window, {"power": power}


def _random_ideal(rng) -> MonomialIdeal:
    return random_monomial_ideal(rng, RingConfig((rng.choice([2, 3]),)), 3, 3)


def _reg_bound(I: MonomialIdeal, dim: int, field):
    """reg Z_t against t(reg(I) + 1)."""
    reg_I = reg_monomial_ideal(I, field)
    return I, None, {"reg_I": reg_I, "dim": dim}, lambda t: [("Z", t * (reg_I + 1), None)]


def _thm1(rng, field):
    """dim S/I <= 1: all but one variable made nilpotent when it is larger."""
    I = _random_ideal(rng)
    dim = monomial_quotient_dim(I)
    if dim > 1:
        I = artinianize(I, 3, skip=(rng.randrange(I.ring.n),))
        dim = monomial_quotient_dim(I)
    return _reg_bound(I, dim, field)


def _probe_q1_case(rng, field):
    """An ideal of positive dimension."""
    I = _random_ideal(rng)
    dim = monomial_quotient_dim(I)
    return _reg_bound(I, dim, field) if dim else None


def _stable(rng, ring, k) -> MonomialIdeal:
    """The Borel closure of k random monomials of degree <= 3."""
    return borel_closure(ring, [random_monomial_ideal(rng, ring, 3, 2).gens[0] for _ in range(k)])


def _piper(rng, field):
    """Generation degrees of Z_t for strongly stable ideals: Tor_0 only."""
    ring = RingConfig((rng.choice([2, 3]),))
    I = _stable(rng, ring, rng.randint(1, 2))
    c = I.max_gen_degree()
    return I, None, {"reg_I": c}, lambda t: [("Z", t * (c + 1), 0)]


def _sato(rng, field):
    """Cycle regularity with quotient coefficients S/J for strongly stable I, J."""
    ring = RingConfig((rng.choice([2, 3]),))
    I, J = _stable(rng, ring, 1), _stable(rng, ring, 1)
    reg_I, reg_SJ = I.max_gen_degree(), J.max_gen_degree() - 1
    params = {"reg_I": reg_I, "reg_SJ": reg_SJ}
    return I, J, params, lambda t: [("Z(I;S/J)", t * (reg_I + 1) + reg_SJ, None)]


def _excess_summary(cases) -> dict:
    """The Tor suite summary plus the largest excess j - i - bound of an entry."""
    excess = [v["j"] - v["i"] - v["bound"] for c in cases for v in c["details"]["violations"]]
    return {**_decided_by_stability(cases), "max_observed_excess": max(excess, default=None)}


# ---------------------------------------------------------------------------
# multigraded, cycle-generation and index suites
# ---------------------------------------------------------------------------


MULTI_SPECS = [((2, 2), (1, 1)), ((2, 2), (2, 1)), ((2, 2), (1, 2))]


def _multi(rng, field):
    """Z_1 and Z_2 of m^c generated by low-degree cycles and one-cycle wedges.

    The candidates are integer chains built from kernel vectors, so the suite
    runs over QQ only.
    """
    for blocks, cvec in MULTI_SPECS:
        ring = RingConfig(blocks)
        ideal = power_ideal(ring, cvec)
        kz = KoszulComplex(ideal)
        # degree-one pool: low-degree one-cycles plus the per-block extra cycles
        pool = []
        for alpha in degrees_upto(ring, cvec):
            pool.extend(kz.cycle_chains(1, alpha))
        for blk in range(ring.d):
            udeg = tuple(ci + (1 if b == blk else 0) for b, ci in enumerate(cvec))
            pool.extend(kz.cycle_chains(1, udeg))
        results = {}
        for t in (1, 2):
            bound = tuple(t * ci + (t - 1) for ci in cvec)
            candidates = []
            for alpha in degrees_upto(ring, bound):
                candidates.extend(kz.cycle_chains(t, alpha))
            for combo in combinations(pool, t):
                prod = reduce(wedge, combo)
                if not prod.is_zero():
                    candidates.append(prod)
            D = tuple(b + 1 for b in bound)
            generated, first_fail = generates_up_to(kz, candidates, t, D)
            results[f"t={t}"] = {
                "generated": generated,
                "window": list(D),
                "first_fail": list(first_fail) if first_fail else None,
            }
        ok = all(r["generated"] for r in results.values())
        yield {"blocks": list(blocks), "c": list(cvec)}, _verdict(ok), {"capped": True}, results


MULTI2_CONFIGS = [
    {"blocks": (2, 2), "c": (1, 1), "block": 0},
    {"blocks": (3,), "c": (2,), "block": 0},
]


def _multi2(rng, field):
    for cfg in MULTI2_CONFIGS:
        trials, failures = multi2_failures(RingConfig(cfg["blocks"]), cfg["c"], cfg["block"], field)
        params = {
            "blocks": list(cfg["blocks"]),
            "c": list(cfg["c"]),
            "block": cfg["block"],
            "factor": cfg["c"][cfg["block"]] + 1,
        }
        window = {"exhaustive_trials": trials, "certified": True}
        yield params, _verdict(not failures), window, {"failures": failures}


MAINCYC_COMBOS = [(n, c, t) for n in (2, 3) for c in (1, 2) for t in (1, 2, 3)]


def _maincyc(rng, field):
    """Z_t = Z_1^t in the generating window for powers of the maximal ideal,
    compared per fine orbit (`KoszulComplex.orbit_dims`)."""
    for n, c, t in MAINCYC_COMBOS:
        params = {"n": n, "c": c, "t": t}
        ideal = power_ideal(RingConfig((n,)), c)
        if t > ideal.r:
            yield params, "pass", {"rank_zero": True}, {"note": "exterior power vanishes"}
            continue
        start = t * (c + 1)
        degrees = range(start, start + MAINCYC_SLACK + 1)
        kz = KoszulComplex(ideal, field)
        dims = kz.orbit_dims(t, z1_products(kz, t), degrees)
        window = {"degrees": [start, start + MAINCYC_SLACK], "certified": True}
        details = {
            "dims": {str(j): {"Z": dz, "Z1_power": dp} for j, (dz, dp) in dims.items()},
            "mismatch_degrees": [j for j, (dz, dp) in dims.items() if dz != dp],
        }
        yield params, _verdict(not details["mismatch_degrees"]), window, details


GEN2_SPECS = [(2, 2), (2, 3), (3, 2)]


def _gen2(rng, field):
    for n, c in GEN2_SPECS:
        ideal = power_ideal(RingConfig((n,)), c)
        families = gen2_families(n, c)
        D = 2 * c + 2
        kz = KoszulComplex(ideal, field)
        generated, first_fail = generates_up_to(kz, families, 2, D)
        params = {"n": n, "c": c, "families": len(families)}
        details = {"first_fail": list(first_fail) if first_fail else None}
        yield params, _verdict(generated), {"degree_bound": D, "certified": True}, details


CHECK_SPECS = [((3,), (2,)), ((2, 2), (1, 1))]


def _check(rng, field):
    for blocks, cvec in CHECK_SPECS:
        spec = SegreVeroneseSpec(blocks, cvec)
        params = {"blocks": list(blocks), "c": list(cvec)}
        target = spec.min_c + 1
        try:
            table = veronese_betti(spec, target, field)
            res = table.index()
        except InfeasibleError as exc:
            yield params, "infeasible", None, {"estimate": exc.estimate}
            continue
        yield (
            {**params, "target": target},
            _verdict(res.satisfies(target)),
            {"i_max": target, "certified": True},
            {"index": res.describe(), "betti": table.to_dict()},
        )


def _surge_tor1_dim(kz: KoszulComplex, j: int) -> int:
    """dim Tor_1(S/I, Z_1)_j from the presentation of S/I by its generators.

    Tor_1 = ker(mu) / im(Syz (x) Z_1), where mu multiplies the summand for
    u_i into Z_1 by u_i, and the syzygy module of I is exactly Z_1(I, S).
    """
    I = kz.ideal
    field = kz.field
    gdeg = [total_deg(g) for g in I.gens]
    offsets, offset, dim_p = [], 0, 0
    for d in gdeg:
        offsets.append(offset)
        if j >= d:
            offset += len(kz.basis(1, j - d))
            dim_p += len(kz.cycle_space(1, j - d))
    if dim_p == 0:
        return 0

    rel = Echelon(field)
    for e in range(0, j + 1):
        right = kz.cycle_chains(1, j - e)
        for zchain in kz.cycle_chains(1, e) if right else ():
            for mchain in right:
                total = {}
                for (T, w), cz in zchain.terms.items():
                    gi = T.bit_length() - 1
                    piece = mchain.scale_monomial(w).scale(cz)
                    pv = kz.chain_vector(piece, (j - gdeg[gi],))
                    for col, v in pv.items():
                        col += offsets[gi]
                        total[col] = field.coerce(total.get(col, 0) + v)
                rel.add(total)

    mu = Echelon(field)
    for g, d in zip(I.gens, gdeg):
        for z in kz.cycle_chains(1, j - d) if j >= d else ():
            mu.add(kz.chain_vector(z.scale_monomial(g), (j,)))
    return dim_p - rel.rank - mu.rank


def _surge(rng, field):
    """Tor_1(S/I, Z_1)_j = 0 iff one-cycle products span (Z_2)_j, for I = m^2;
    dim Z_2 and the products' rank are summed per fine orbit
    (`KoszulComplex.orbit_dims`)."""
    kz = KoszulComplex(power_ideal(RingConfig((2,)), 2), field)
    dims = kz.orbit_dims(2, z1_products(kz, 2), range(SURGE_DEGREE + 1))
    mismatches, table = [], {}
    for j, (dz2, prod_rank) in dims.items():
        tor1 = _surge_tor1_dim(kz, j)
        table[str(j)] = {"dim_Z2": dz2, "product_rank": prod_rank, "tor1": tor1}
        if (tor1 == 0) != (prod_rank == dz2):
            mismatches.append(j)
    window = {"degrees": [0, SURGE_DEGREE], "certified": True}
    details = {"by_degree": table, "mismatch_degrees": mismatches}
    yield {"n": 2, "c": 2, "s": 1, "t": 1}, _verdict(not mismatches), window, details


SUITES = {
    "signs": Suite(_signs, 1, QQ_ONLY),
    "maps": Suite(_maps, 200, QQ_ONLY),
    "regb": _tor_suite(_regb),
    "thm1": _tor_suite(_thm1),
    "greeny": _tor_suite(_greeny),
    "remark_b": Suite(_remark_b, 50, QQ_ONLY),
    "piper": _tor_suite(_piper),
    "sato": _tor_suite(_sato),
    "multi": Suite(_multi, len(MULTI_SPECS), QQ_ONLY),
    "multi2": Suite(_multi2, len(MULTI2_CONFIGS)),
    "maincyc": Suite(_maincyc, len(MAINCYC_COMBOS)),
    "gen2": Suite(_gen2, len(GEN2_SPECS), char_floor=2),
    "check": Suite(_check, len(CHECK_SPECS)),
    "surge": Suite(_surge, 1),
}

_PROBE_Q1 = _tor_suite(_probe_q1_case, size=20, found="candidate", summarize=_excess_summary)


def run_suite(name, seed=1, size=None, field=QQ) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    return _run(name, SUITES[name], seed, size, field)


def probe_q1(seed=1, size=None, field=QQ) -> SuiteReport:
    """Exact scans of reg Z_t for ideals of positive dimension.

    The scan to |a| is exact, so each window is certified.  An entry above
    t(reg(I) + 1) is still a candidate, never a refutation: the probe asks
    whether the bound holds in every positive dimension, and an excess is a
    lead to examine; the summary reports the largest excess seen.
    """
    return _run("probe_q1", _PROBE_Q1, seed, size, field)
