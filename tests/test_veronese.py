import json
import time
from math import ceil, comb

import pytest

from koszul_lab.fields import QQ, PrimeField
from koszul_lab.homology import DEFAULT_COMPONENT_CEILING, InfeasibleError, KoszulComplex
from koszul_lab.rings import RingConfig, component_dim, power_ideal
from koszul_lab.veronese import (
    BettiTable,
    IndexResult,
    SegreVeroneseSpec,
    _balanced,
    green_lazarsfeld_index,
    veronese_betti,
)

from oracles import hilbert_alternating_sum, quadric_relation_count

VERONESE_SURFACE = SegreVeroneseSpec((3,), (2,))
SEGRE_P1P1 = SegreVeroneseSpec((2, 2), (1, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        SegreVeroneseSpec((2,), (0,))
    spec = SegreVeroneseSpec((2, 3), (2, 1))
    assert spec.min_c == 1
    assert spec.ring.n == 5


def test_spec_ring_is_built_once_and_specs_compare_by_blocks_and_c():
    spec = SegreVeroneseSpec([2, 3], [2, 1])
    assert spec.ring is spec.ring and spec.ring == RingConfig((2, 3))
    assert (spec.blocks, spec.c) == ((2, 3), (2, 1))
    same = SegreVeroneseSpec((2, 3), (2, 1))
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != SegreVeroneseSpec((2, 3), (1, 2)) and spec != SegreVeroneseSpec((3, 2), (2, 1))
    assert SegreVeroneseSpec((3,), 2) == SegreVeroneseSpec((3,), (2,))


def test_index_results_compare_by_value_and_tables_keep_their_fields():
    assert IndexResult(True, 2, (3, 5)) == IndexResult(True, 2, (3, 5))
    assert IndexResult(True, 2, (3, 5)) != IndexResult(True, 2, (3, 6))
    assert IndexResult(False, 4, None) != IndexResult(True, 4, None) != (True, 4, None)
    assert green_lazarsfeld_index(VERONESE_SURFACE, 3) == IndexResult(False, 3, None)
    table = BettiTable({(0, 0): 1}, 0, {0: (0, 1)})
    assert (table.entries, table.i_max, table.windows) == ({(0, 0): 1}, 0, {0: (0, 1)})
    assert table.entry(0, 5) == 0 and table.index() == IndexResult(False, 0, None)


def test_quadric_oracle_values():
    assert quadric_relation_count(SegreVeroneseSpec((2,), (2,))) == 1
    assert quadric_relation_count(SegreVeroneseSpec((2,), (3,))) == 3
    assert quadric_relation_count(VERONESE_SURFACE) == 6
    assert quadric_relation_count(SEGRE_P1P1) == 1


def test_betti_matches_quadric_oracle():
    for spec in (
        SegreVeroneseSpec((2,), (2,)),
        SegreVeroneseSpec((2,), (3,)),
        VERONESE_SURFACE,
        SEGRE_P1P1,
    ):
        table = veronese_betti(spec, 1)
        assert table.entry(1, 2) == quadric_relation_count(spec)
        assert table.entry(1, 1) == 0


def test_veronese_surface_resolution():
    # classical: 0 -> T(-4)^3 -> T(-3)^8 -> T(-2)^6 -> T -> R -> 0
    table = veronese_betti(VERONESE_SURFACE, 3)
    nonzero = {k: v for k, v in table.entries.items() if v}
    assert nonzero == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def test_rows_past_the_generator_count_build_nothing():
    # m^2 in three variables has r = 6 generators, so K_i = 0 for i > 6 and
    # rows 7..60 are zero without a face grown; 22 s when each row
    # enumerated its fine blocks, 0.03 s on a 2-core x86 VM
    start = time.monotonic()
    table = veronese_betti(VERONESE_SURFACE, 60)
    assert time.monotonic() - start < 5
    nonzero = {k: v for k, v in table.entries.items() if v}
    assert nonzero == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def test_veronese_surface_euler_characteristic():
    # independent consistency check: the alternating sum of the resolution
    # reproduces the Hilbert function of the Veronese ring
    table = veronese_betti(VERONESE_SURFACE, 3)
    ring = VERONESE_SURFACE.ring
    N = component_dim(ring, (2,))  # presentation ring has N variables
    for k in range(0, 9):
        hilbert_R = component_dim(ring, (2 * k,))
        resolved = sum(
            (-1) ** i * d * comb(N - 1 + k - j, N - 1)
            for (i, j), d in table.entries.items()
            if k - j >= 0
        )
        assert resolved == hilbert_R


@pytest.mark.parametrize(
    "blocks, c",
    [((3,), (2,)), ((3,), (3,)), ((4,), (2,)), ((2, 2), (1, 1)), ((2, 2), (1, 2))],
)
def test_betti_rows_match_the_hilbert_series(blocks, c):
    # every beta_{i,j} with j <= 4 lies in rows 0..4 (beta_{i,j} = 0 for i > j),
    # so each degree j <= 4 of the table is complete
    spec = SegreVeroneseSpec(blocks, c)
    table = veronese_betti(spec, 4)
    for j in range(5):
        euler = sum((-1) ** i * table.entry(i, j) for i in range(j + 1))
        assert euler == hilbert_alternating_sum(spec, j), j
    # the table derives its linear strand from this sum, so check it against ranks
    kz = KoszulComplex(power_ideal(spec.ring, spec.c))
    for i in range(1, 5):
        assert table.entry(i, i + 1) == kz.homology_dim(i, tuple((i + 1) * a for a in spec.c))


def test_window_semantics():
    table = veronese_betti(VERONESE_SURFACE, 2)
    assert table.entry(1, 99) == 0  # beyond the certified cut
    with pytest.raises(KeyError):
        table.entry(7, 8)  # row never computed
    assert max(j for (i, j), d in table.entries.items() if i == 1 and d) == 2
    assert isinstance(table, BettiTable)
    assert '"entries"' in json.dumps(table.to_dict(), sort_keys=True)


def test_index_results():
    res = green_lazarsfeld_index(VERONESE_SURFACE, 3)
    assert not res.exact and res.value == 3
    assert res.satisfies(3) and "index >= 3" in res.describe()
    res = green_lazarsfeld_index(SEGRE_P1P1, 2)
    assert res.satisfies(2) and res.witness is None
    with pytest.raises(ValueError):
        green_lazarsfeld_index(SEGRE_P1P1, 0)


def whole_table_index(spec, i_max, field=QQ):
    """The index by the rule on the whole table, each entry an orbit sum over
    jc: the first row i with a nonzero entry at j > i + 1, and the smallest
    such j."""
    kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
    for i in range(1, i_max + 1):
        for j in range(i + 2, i + 1 + ceil(i / spec.min_c)):
            if kz.homology_dim(i, tuple(j * a for a in spec.c)):
                return True, i - 1, (i, j)
    return False, i_max, None


INDEX_CASES = [
    (VERONESE_SURFACE, 3, None),
    (SEGRE_P1P1, 2, None),
    (SegreVeroneseSpec((3,), (3,)), 7, (7, 9)),
    (SegreVeroneseSpec((4,), (2,)), 6, (6, 8)),
    (SegreVeroneseSpec((2, 2), (2, 2)), 6, (6, 8)),
    (SegreVeroneseSpec((2, 3), (1, 1)), 4, None),
]


# the index decides its entries at balanced fine blocks over QQ and GF(32003),
# by orbit sums over GF(3), where 3 <= j max(c) for every entry it reads
INDEX_FIELDS = [QQ, PrimeField(32003), PrimeField(3)]


@pytest.mark.parametrize("spec,target,witness", INDEX_CASES)
def test_index_agrees_with_the_whole_table(spec, target, witness):
    for field in INDEX_FIELDS:
        res = green_lazarsfeld_index(spec, target, field)
        assert (res.exact, res.value, res.witness) == whole_table_index(spec, target, field), field
        assert res.witness == witness, field


@pytest.mark.parametrize("spec,target,witness", INDEX_CASES)
def test_table_index_is_the_index(spec, target, witness):
    # the index read off the table is the one computed entry by entry
    assert veronese_betti(spec, target).index() == green_lazarsfeld_index(spec, target)


@pytest.mark.parametrize("spec,target,witness", INDEX_CASES)
def test_index_reads_no_row_past_the_number_of_generators(spec, target, witness, monkeypatch):
    # K_i = 0 for i > r = dim S_c, so a target far past r reads rows 1..r only:
    # a range-exhausted index keeps the target as its value, and a witness is
    # the one found at the smaller target
    r = component_dim(spec.ring, spec.c)
    homology_dim, rows = KoszulComplex.homology_dim, set()

    def spy(self, t, alpha):
        rows.add(t)
        return homology_dim(self, t, alpha)

    monkeypatch.setattr(KoszulComplex, "homology_dim", spy)
    start = time.monotonic()
    res = green_lazarsfeld_index(spec, 10**6)
    assert time.monotonic() - start < 5
    assert max(rows) <= r
    if witness:
        assert (res.exact, res.value, res.witness) == (True, witness[0] - 1, witness)
    else:
        assert (res.exact, res.value, res.witness) == (False, 10**6, None)


def is_balanced(spec, j, alpha):
    """Whether the fine degree alpha splits each block's j c_b as evenly as
    possible, larger parts first."""
    blocks = spec.ring.block_slices()
    return len(alpha) == spec.ring.n and all(
        sum(alpha[a:b]) == j * c and list(alpha[a:b]) == sorted(alpha[a:b], reverse=True)
        and alpha[a] - alpha[b - 1] <= 1
        for (a, b), c in zip(blocks, spec.c)
    )


@pytest.mark.parametrize("spec,target,witness", INDEX_CASES)
def test_index_ranks_only_the_deciding_entries(spec, target, witness, monkeypatch):
    # the entries j >= i + 2 of each row's window, in order, up to the
    # witness: none of the linear strand, none past a window, none after it;
    # each at its balanced fine block over QQ, at the multidegree jc (the
    # orbit sum) over GF(3), where 3 <= j max(c)
    homology_dim = KoszulComplex.homology_dim
    want = [
        (i, j) for i in range(1, target + 1) for j in range(i + 2, i + 1 + ceil(i / spec.min_c))
    ]
    if witness:
        want = want[: want.index(witness) + 1]
    def is_multidegree(spec, j, alpha):
        return alpha == tuple(j * c for c in spec.c)

    for field, at in [(QQ, is_balanced), (PrimeField(3), is_multidegree)]:
        asked = []

        def spy(self, t, alpha):
            # sum(alpha) = j sum(c) at a fine degree and at a multidegree alike
            j = sum(alpha) // sum(spec.c)
            assert at(spec, j, alpha), (field, t, alpha)
            asked.append((t, j))
            return homology_dim(self, t, alpha)

        monkeypatch.setattr(KoszulComplex, "homology_dim", spy)
        green_lazarsfeld_index(spec, target, field)
        assert asked == want, field


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
@pytest.mark.parametrize(
    "blocks, c, rows",
    [((3,), (2,), 5), ((3,), (3,), 7), ((4,), (2,), 6), ((5,), (2,), 6), ((2, 2), (2, 2), 6),
     ((2, 2), (2, 3), 8), ((2, 3), (1, 2), 6), ((2, 2, 2), (1, 1, 1), 5)],
)
def test_balanced_block_decides_each_entry(blocks, c, rows, field):
    # the argument of the module docstring: over QQ and GF(p) with p > j max(c),
    # beta_{i,j} is nonzero iff its block at the balanced fine degree is; every
    # entry i + 1 <= j < cut, the linear strand included, to the first row with
    # an entry past it (or row 5)
    spec = SegreVeroneseSpec(blocks, c)
    kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
    for i in range(1, rows + 1):
        for j in range(i + 1, i + 1 + ceil(i / spec.min_c)):
            beta = _balanced(spec, j)
            assert is_balanced(spec, j, beta)
            block = kz.homology_dim(i, beta)
            whole = kz.homology_dim(i, tuple(j * a for a in spec.c))
            assert (block > 0) == (whole > 0), (i, j, block, whole)


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(32003)], ids=["QQ", "GF2", "GF32003"]
)
def test_linear_strand_matches_the_ranked_entry(field):
    # veronese_betti derives beta_{i,i+1} from the Euler characteristic of its
    # column (module docstring); the engine's rank agrees over every field
    for blocks, c in [((2,), (3,)), ((3,), (2,)), ((3,), (3,)), ((4,), (2,)), ((3,), (4,)),
                      ((2, 2), (1, 1)), ((2, 2), (1, 2)), ((2, 3), (1, 1)), ((2, 2, 2), (1, 1, 1))]:
        spec = SegreVeroneseSpec(blocks, c)
        table = veronese_betti(spec, 5, field)
        kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
        for i in range(1, 6):
            ranked = kz.homology_dim(i, tuple((i + 1) * a for a in spec.c))
            assert table.entry(i, i + 1) == ranked, (blocks, c, i)


def betti_calls(spec, target, field, monkeypatch):
    """The (row, j, degree) of each homology_dim call of veronese_betti, and
    the table."""
    asked = []
    homology_dim = KoszulComplex.homology_dim

    def spy(self, t, alpha):
        # sum(alpha) = j sum(c) at a fine degree and at a multidegree alike
        asked.append((t, sum(alpha) // sum(spec.c), alpha))
        return homology_dim(self, t, alpha)

    monkeypatch.setattr(KoszulComplex, "homology_dim", spy)
    table = veronese_betti(spec, target, field)
    monkeypatch.undo()
    return asked, table


def past_the_strand(spec, target):
    return [
        (i, j) for i in range(1, target + 1) for j in range(i + 2, i + 1 + ceil(i / spec.min_c))
    ]


@pytest.mark.parametrize("spec,target", [case[:2] for case in INDEX_CASES])
def test_betti_ranks_only_the_entries_past_the_linear_strand(spec, target, monkeypatch):
    # the entries j >= i + 2 of each row's window, in order, each at its
    # balanced fine block, then at jc (the orbit sum) only where that block is
    # nonzero: beta_{i,i} and beta_{i,i+1} are recorded without a rank
    asked, table = betti_calls(spec, target, QQ, monkeypatch)
    want = []
    for i, j in past_the_strand(spec, target):
        want.append((i, j, _balanced(spec, j)))
        if table.entry(i, j):
            want.append((i, j, tuple(j * a for a in spec.c)))
    assert asked == want
    assert all(is_balanced(spec, j, alpha) for _, j, alpha in asked if len(alpha) == spec.ring.n)


@pytest.mark.parametrize("spec,target", [case[:2] for case in INDEX_CASES])
def test_betti_below_the_bound_ranks_only_orbit_sums(spec, target, monkeypatch):
    # over GF(3), where 3 <= j max(c) for every entry j >= i + 2, the balanced
    # argument does not hold, and each entry is its orbit sum at jc alone
    asked, _ = betti_calls(spec, target, PrimeField(3), monkeypatch)
    want = [(i, j, tuple(j * a for a in spec.c)) for i, j in past_the_strand(spec, target)]
    assert asked == want


# v_4(P^2), P^1 x P^2 with c = (1, 2), whose beta_{6,8} is 21, and P^4 x P^4,
# whose beta_{3,5} is 1 over GF(3) and 0 over GF(7) (chessboard M_{5,5})
ORBIT_SUM_CASES = [((3,), (4,), 9), ((2, 3), (1, 2), 6), ((5, 5), (1, 1), 3)]


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003)],
    ids=["QQ", "GF2", "GF3", "GF7", "GF32003"],
)
def test_table_entries_are_the_orbit_sums(field):
    # a zero decided at its balanced block, and every other entry, equals the
    # orbit sum over jc ranked in a complex of its own; GF(2), GF(3) and GF(7)
    # fall below j max(c) on some entries, which keep the orbit sum alone
    for blocks, c, rows in ORBIT_SUM_CASES:
        spec = SegreVeroneseSpec(blocks, c)
        table = veronese_betti(spec, rows, field)
        kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
        for (i, j), dim in table.entries.items():
            if i:
                assert dim == kz.homology_dim(i, tuple(j * a for a in c)), (blocks, c, i, j)
        off = {k: d for k, d in table.entries.items() if d and k[1] >= k[0] + 2}
        want = {(2, 3): {(6, 8): 21}, (5, 5): {(3, 5): 1} if field.characteristic == 3 else {}}
        assert off == want.get(blocks, {}), (blocks, field)


def test_a_nonzero_entry_ranks_its_balanced_block_once(monkeypatch):
    # beta_{6,8} = 21 of P^1 x P^2 with c = (1, 2) is decided at its balanced
    # block, which the orbit sum over 8c then reads without a second rank
    ranked = []
    morse_dim = KoszulComplex._morse_dim

    def spy(self, t, beta, levels, up):
        ranked.append((t, beta))
        return morse_dim(self, t, beta, levels, up)

    monkeypatch.setattr(KoszulComplex, "_morse_dim", spy)
    spec = SegreVeroneseSpec((2, 3), (1, 2))
    assert veronese_betti(spec, 6).entries[6, 8] == 21
    assert (6, _balanced(spec, 8)) in ranked
    assert len(ranked) == len(set(ranked))


def test_a_table_of_zeros_sums_no_orbit(monkeypatch):
    # every entry j >= i + 2 of v_2(P^3) to row 5 is zero at its balanced
    # block, so no entry goes on to the orbit sum
    def refuse(self, alpha):
        raise AssertionError(f"orbit sum at {alpha}")

    monkeypatch.setattr(KoszulComplex, "_orbits", refuse)
    table = veronese_betti(SegreVeroneseSpec((4,), (2,)), 5)
    assert (5, 7) in table.entries
    assert not any(d for (i, j), d in table.entries.items() if j >= i + 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "GF3"])
def test_first_entry_of_each_row_is_zero(field):
    # veronese_betti records beta_{i,i} = 0 without a rank (module docstring);
    # the engine agrees wherever it is asked
    for blocks, c in [((2,), (2,)), ((2,), (3,)), ((3,), (2,)), ((3,), (3,)), ((4,), (2,)),
                      ((2, 2), (1, 1)), ((2, 2), (1, 2)), ((2, 3), (1, 1))]:
        spec = SegreVeroneseSpec(blocks, c)
        kz = KoszulComplex(power_ideal(spec.ring, spec.c), field)
        for i in range(1, 6):
            assert kz.homology_dim(i, tuple(i * a for a in spec.c)) == 0


def test_segre_quadric_hypersurface():
    # P^1 x P^1 is a quadric in P^3: a single relation and no higher syzygies
    table = veronese_betti(SEGRE_P1P1, 2)
    nonzero = {k: v for k, v in table.entries.items() if v}
    assert nonzero == {(0, 0): 1, (1, 2): 1}


def test_sextic_veronese_quadrics_fit_the_ceiling():
    # v_6(P^5): the coarse K_1 at degree 12 (213,444) is over the ceiling, the
    # fine blocks of row 1 are not
    spec = SegreVeroneseSpec((6,), (6,))
    assert veronese_betti(spec, 1).entry(1, 2) == quadric_relation_count(spec) == 100_765


def test_table_entries_are_counted_against_the_ceiling():
    # rows 1..i_max of v_2(P^2) hold 1 + sum_i (1 + ceil(i / 2)) entries:
    # 49,951 through row 444, 50,175 through row 445, so 445 is the first
    # refused; a huge i_max is refused at once, its count cut past the ceiling
    assert len(veronese_betti(VERONESE_SURFACE, 444).entries) == 49_951
    for i_max in (445, 10**9):
        start = time.monotonic()
        with pytest.raises(InfeasibleError) as exc:
            veronese_betti(VERONESE_SURFACE, i_max)
        assert exc.value.estimate == 50_175 > DEFAULT_COMPONENT_CEILING
        assert time.monotonic() - start < 1


@pytest.mark.parametrize(
    "spec,target,answers",
    [
        # beta_{3,5} of P^4 x P^4 is 1 over GF(3) and 0 over QQ (chessboard M_{5,5})
        (SegreVeroneseSpec((5, 5), (1, 1)), 4, {0: (3, (4, 6)), 3: (2, (3, 5))}),
        # v_2(P^9) at (1^10): the matching complex M_10, 3-torsion again
        (SegreVeroneseSpec((10,), (2,)), 3, {3: (2, (3, 5))}),
    ],
)
def test_index_depends_on_the_characteristic(spec, target, answers):
    for p, (value, witness) in answers.items():
        res = green_lazarsfeld_index(spec, target, PrimeField(p) if p else QQ)
        assert (res.exact, res.value, res.witness) == (True, value, witness), p


def test_infeasible_ceiling():
    spec = SegreVeroneseSpec((6,), (3,))
    with pytest.raises(InfeasibleError) as exc:
        veronese_betti(spec, 4)
    assert exc.value.estimate > DEFAULT_COMPONENT_CEILING
