"""Semilattice table validation and the finishing-set combinatorics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import InputError, ValidationFailure
from gradedcstar.graded import covering_pairs, restrict_spec
from gradedcstar.semilattice import (
    AssociativityViolation,
    CommutativityViolation,
    EmptySet,
    IdempotencyViolation,
    Semilattice,
    antichain_with_bottom,
    chain,
    diamond,
    product_semilattice,
)


# ---------------------------------------------------------------- oracles

def oracle_leq(table, i, j):
    return table[i][j] == i


def oracle_finishing_subsets(table):
    """Independent brute force: filter all nonempty subsets directly."""
    n = len(table)
    out = []
    for mask in range(1, 1 << n):
        S = {i for i in range(n) if mask >> i & 1}
        upward = all(
            j in S for i in S for j in range(n) if oracle_leq(table, i, j)
        )
        meet_closed = all(table[i][j] in S for i in S for j in S)
        if upward and meet_closed:
            out.append(frozenset(S))
    return out


def check_good(L):
    """Every nonempty finishing sub-semilattice has a least element: true
    for every finite semilattice, exercised rather than assumed."""
    for S in L.enumerate_finishing_subsemilattices():
        if not any(all(L.leq(m, s) for s in S) for m in S):
            return False
    return True


def oracle_order_queries(L):
    """comparable_pairs, bottom, top, atoms, finishing sets and covering
    pairs, each walked with leq."""
    n = L.n
    pairs = [(i, j) for i in range(n) for j in range(n) if L.leq(i, j)]
    bottom = next((b for b in range(n) if all(L.leq(b, i) for i in range(n))), None)
    top = next((t for t in range(n) if all(L.leq(i, t) for i in range(n))), None)
    atoms = frozenset(
        i
        for i in range(n)
        if i != bottom and all(j in (bottom, i) for j in range(n) if L.leq(j, i))
    )
    upsets = [frozenset(j for j in range(n) if L.leq(k, j)) for k in range(n)]
    covers = [
        (i, j)
        for i, j in pairs
        if i != j and not any(t not in (i, j) and L.leq(i, t) and L.leq(t, j) for t in range(n))
    ]
    return pairs, bottom, top, atoms, upsets, covers


@st.composite
def semilattices(draw):
    """Random semilattice via an intersection-closed family of subsets.

    Every finite meet-semilattice arises this way, with meet = intersection.
    """
    universe = draw(st.integers(1, 5))
    gens = draw(
        st.lists(
            st.frozensets(st.integers(0, universe - 1), max_size=universe),
            min_size=1,
            max_size=5,
        )
    )
    family = set(gens)
    while True:
        extra = {a & b for a in family for b in family} - family
        if not extra:
            break
        family |= extra
    family = sorted(family, key=lambda s: (len(s), sorted(s)))
    idx = {s: i for i, s in enumerate(family)}
    table = [[idx[a & b] for b in family] for a in family]
    return Semilattice(table)


# ------------------------------------------------------------- validation

def test_chain_min_table_is_valid():
    L = chain(3)
    assert L.n == 3
    assert L.meet[1, 2] == 1


def test_diamond_is_valid_and_has_expected_order():
    L = diamond()
    a, b = L.index_of("a"), L.index_of("b")
    assert L.meet[a, b] == L.index_of("0")
    assert L.leq(L.index_of("0"), a)
    assert not L.leq(a, b)
    assert not L.leq(b, a)
    assert L.leq(a, L.index_of("1"))


def test_asymmetric_table_raises_commutativity():
    with pytest.raises(CommutativityViolation) as e:
        Semilattice([[0, 1], [0, 1]])
    assert e.value.pair == (0, 1)


def test_broken_diagonal_raises_idempotency():
    with pytest.raises(IdempotencyViolation):
        Semilattice([[1, 0], [0, 1]])


def test_nonassociative_table_names_the_triple():
    # commutative and idempotent, but (0^0)^1 = 2 while 0^(0^1) = 0
    table = [[0, 2, 0], [2, 1, 2], [0, 2, 2]]
    with pytest.raises(AssociativityViolation) as e:
        Semilattice(table)
    i, j, k = e.value.triple
    left = table[table[i][j]][k]
    right = table[i][table[j][k]]
    assert left != right


def test_out_of_range_entry_rejected():
    with pytest.raises(InputError):
        Semilattice([[0, 5], [5, 1]])


def oracle_table_message(table):
    """The message for the first ragged row, non-integer entry or entry
    out of range, row-major, by loops; None if there is none."""
    n = len(table)
    for row in table:
        if len(row) != n:
            return "meet table is not square"
        for x in row:
            if not isinstance(x, int):
                return f"meet table entry {x!r} is not an integer"
            if not 0 <= x < n:
                return f"meet table entry {x} out of range 0..{n - 1}"
    return None


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0, 1.9]], "meet table entry 1.9 is not an integer"),  # not the 2-chain
    ([[0, 0], [0, "1"]], "meet table entry '1' is not an integer"),
    (np.array([[0.0, 0.0], [0.0, 1.0]]), "meet table entry 0.0 is not an integer"),
    ([[0, 1.5], [0, 5]], "meet table entry 1.5 is not an integer"),
    ([[0, 5], [0, 1.5]], "meet table entry 5 out of range 0..1"),
    ([[0, 0], [0]], "meet table is not square"),
])
def test_non_integer_entries_are_refused(table, message):
    with pytest.raises(InputError) as e:
        Semilattice(table)
    assert str(e.value) == message


@st.composite
def tables_of_mixed_entries(draw):
    n = draw(st.integers(1, 4))
    entry = st.one_of(
        st.integers(-1, n), st.floats(allow_nan=False), st.text(max_size=1)
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(tables_of_mixed_entries())
def test_entry_checks_name_the_first_offender(table):
    message = oracle_table_message(table)
    try:
        Semilattice(table)
    except InputError as e:
        assert str(e) == message
    except ValidationFailure:
        assert message is None
    else:
        assert message is None


def test_tables_are_read_only_intp_arrays():
    table = np.minimum.outer(np.arange(3), np.arange(3))
    spec = wb.build_all_scalar(diamond())
    for L in (Semilattice(table), product_semilattice(chain(2), diamond()),
              restrict_spec(spec, [0, 1])[0].L):
        assert L.meet.dtype == np.intp
        with pytest.raises(ValueError):
            L.meet[0, 0] = 1
    table[0, 0] = 0  # the caller's array stays writeable


def test_queries_hand_out_python_ints():
    L = product_semilattice(chain(3), diamond())
    values = [L.meet_of_set({5, 10}), L.bottom(), L.top(), *L.comparable_pairs()[3]]
    for S in (L.generated_subsemilattice({5, 10}), L.atoms(), L.finishing_set(5)):
        values.extend(S)
    assert all(type(v) is int for v in values)
    assert type(L.leq(0, 5)) is bool and type(L.is_subsemilattice({0, 5})) is bool


# ------------------------------------------------------------ basic queries

def test_meet_of_set_examples():
    L = diamond()
    assert L.meet_of_set({L.index_of("a"), L.index_of("b")}) == L.index_of("0")
    assert L.meet_of_set({2}) == 2
    assert chain(3).meet_of_set({1, 2}) == 1


def test_meet_of_empty_set_raises():
    with pytest.raises(EmptySet):
        chain(2).meet_of_set(set())


def test_bottom_and_top():
    L = diamond()
    assert L.bottom() == L.index_of("0")
    assert L.top() == L.index_of("1")
    assert antichain_with_bottom(3).top() is None


def test_generated_subsemilattice():
    L = diamond()
    a, b = L.index_of("a"), L.index_of("b")
    assert L.generated_subsemilattice({a, b}) == {0, a, b}
    # fixpoint on an already meet-closed set
    assert L.generated_subsemilattice({0, a}) == {0, a}
    assert L.generated_subsemilattice(set()) == frozenset()


def test_finishing_set_examples():
    L = diamond()
    a = L.index_of("a")
    assert L.finishing_set(a) == {a, L.index_of("1")}
    assert L.finishing_set(L.index_of("0")) == frozenset(range(4))
    assert L.finishing_set(L.index_of("1")) == {L.index_of("1")}


def test_is_finishing_subsemilattice_examples():
    L = diamond()
    a, b, one = L.index_of("a"), L.index_of("b"), L.index_of("1")
    assert L.is_finishing_subsemilattice({a, one})
    # upward-closed but a ^ b = 0 is missing
    assert not L.is_finishing_subsemilattice({a, b, one})
    assert L.is_finishing_subsemilattice(frozenset(range(4)))


@pytest.mark.parametrize(
    "query", ["generated_subsemilattice", "is_subsemilattice", "is_finishing_subsemilattice"]
)
@pytest.mark.parametrize(
    "S, message",
    [
        ({-1}, "index -1 is out of range for 3 indices"),
        ({0, 3}, "index 3 is out of range for 3 indices"),
        ([5, -2], "index -2 is out of range for 3 indices"),
        ({0.5}, "index 0.5 is not an integer"),
        ([1, True], "index True is not an integer"),
    ],
)
def test_subset_queries_refuse_indices_outside_the_table(query, S, message):
    # a negative index used to read the table from its end:
    # chain(3).generated_subsemilattice({-1}) gave frozenset({-1, 2})
    with pytest.raises(InputError, match=f"^{message}$"):
        getattr(chain(3), query)(S)


# ------------------------------------------------------------- enumeration

def test_enumerate_chain3():
    L = chain(3)
    got = L.enumerate_finishing_subsemilattices()
    assert set(got) == {frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})}


def test_enumerate_diamond_frozen():
    L = diamond()
    got = set(L.enumerate_finishing_subsemilattices())
    assert got == {
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({0, 1, 2, 3}),
    }


def test_enumerate_antichain():
    L = antichain_with_bottom(2)
    got = set(L.enumerate_finishing_subsemilattices())
    assert got == {frozenset({1}), frozenset({2}), frozenset({0, 1, 2})}


def test_enumerate_matches_oracle_on_fixed_corpus():
    for L in [chain(1), chain(4), diamond(), antichain_with_bottom(3)]:
        assert set(L.enumerate_finishing_subsemilattices()) == set(
            oracle_finishing_subsets(L.meet)
        )


def test_enumeration_order_is_sorted_bitsets():
    L = diamond()
    got = L.enumerate_finishing_subsemilattices()
    masks = [sum(1 << i for i in S) for S in got]
    assert masks == sorted(masks)


# ---------------------------------------------------------------- products

def test_chain2_times_chain2_is_a_grid():
    P = product_semilattice(chain(2), chain(2))
    assert P.n == 4
    # (0,1) and (1,0) are incomparable with meet (0,0)
    assert P.meet[1, 2] == 0
    assert P.bottom() == 0
    assert P.top() == 3


def test_product_with_singleton_is_isomorphic():
    L = diamond()
    P = product_semilattice(L, chain(1))
    assert P.n == L.n
    assert all(
        P.meet[i, j] == L.meet[i, j] for i in range(L.n) for j in range(L.n)
    )


def test_product_order_is_componentwise():
    L1, L2 = chain(3), diamond()
    P = product_semilattice(L1, L2)
    for i1 in range(L1.n):
        for i2 in range(L2.n):
            for j1 in range(L1.n):
                for j2 in range(L2.n):
                    a, b = i1 * L2.n + i2, j1 * L2.n + j2
                    assert P.leq(a, b) == (L1.leq(i1, j1) and L2.leq(i2, j2))


def test_product_and_restriction_run_no_semilattice_check(monkeypatch):
    # both build over tables that checked semilattices already determine,
    # and must equal what the checked constructor builds from them
    spec = wb.build_all_scalar(product_semilattice(diamond(), chain(2)))
    products = [(chain(3), diamond()), (diamond(), antichain_with_bottom(3)), (chain(1), chain(4))]
    subsets = [sorted(spec.L.generated_subsemilattice(S)) for S in ([3], [3, 5], [2, 5, 7], range(8))]
    want = [
        Semilattice(sl._componentwise_table(L1.meet, L2.meet), [f"({a},{b})" for a in L1.names for b in L2.names])
        for L1, L2 in products
    ] + [
        Semilattice([[M.index(spec.L.meet[a][b]) for b in M] for a in M], [spec.L.names[a] for a in M])
        for M in subsets
    ]

    def refuse(table):
        raise AssertionError("semilattice check")

    monkeypatch.setattr(sl, "_first_nonassociative", refuse)
    got = [product_semilattice(L1, L2) for L1, L2 in products]
    for M in subsets:
        sub, remap = restrict_spec(spec, M)
        assert remap == {old: new for new, old in enumerate(M)}
        got.append(sub.L)
    for g, w in zip(got, want):
        assert (g.n, g.names) == (w.n, w.names) and np.array_equal(g.meet, w.meet)
        assert g.le.dtype == bool and (g.le == w.le).all()
        assert not g.le.flags.writeable


# --------------------------------------------------------- goodness, atoms

def test_every_corpus_semilattice_is_good():
    for L in [chain(1), chain(5), diamond(), antichain_with_bottom(4)]:
        assert check_good(L)


def test_atoms_examples():
    L = diamond()
    assert L.atoms() == {L.index_of("a"), L.index_of("b")}
    assert chain(3).atoms() == {1}
    assert antichain_with_bottom(3).atoms() == {1, 2, 3}


# ------------------------------------------------------------- properties

@settings(max_examples=60, deadline=None)
@given(semilattices())
def test_random_semilattice_properties(L):
    n = L.n
    # a finite meet-semilattice always has a least element
    assert L.bottom() is not None
    for k in range(n):
        assert L.is_finishing_subsemilattice(L.finishing_set(k))
    assert set(L.enumerate_finishing_subsemilattices()) == set(
        oracle_finishing_subsets(L.meet)
    )
    assert check_good(L)


@settings(max_examples=60, deadline=None)
@given(semilattices(), st.sets(st.integers(0, 20), max_size=6))
def test_order_matrix_queries_match_leq(L, raw):
    assert L.le.dtype == bool and not L.le.flags.writeable
    assert L.le.tolist() == [[L.leq(i, j) for j in range(L.n)] for i in range(L.n)]
    pairs, bottom, top, atoms, upsets, covers = oracle_order_queries(L)
    assert L.comparable_pairs() == pairs
    assert covering_pairs(L) == covers
    assert all(type(x) is int for pair in pairs for x in pair)
    assert (L.bottom(), L.top(), L.atoms()) == (bottom, top, atoms)
    assert [L.finishing_set(k) for k in range(L.n)] == upsets
    S = frozenset(x % L.n for x in raw)
    upward = all(j in S for i in S for j in upsets[i])
    assert L.is_finishing_subsemilattice(S) == (upward and L.is_subsemilattice(S))


def oracle_closure(table, M):
    """The pairwise-meet closure of M and whether M is meet-closed, by loops."""
    S = set(M)
    while True:
        new = {table[i][j] for i in S for j in S} - S
        if not new:
            return frozenset(S), S == set(M)
        S |= new


@settings(max_examples=60, deadline=None)
@given(semilattices(), st.sets(st.integers(0, 20), max_size=5))
def test_closure_queries_match_the_loops(L, raw):
    M = {x % L.n for x in raw}
    closure, closed = oracle_closure(L.meet.tolist(), M)
    assert L.generated_subsemilattice(M) == closure
    assert L.is_subsemilattice(M) is closed


@settings(max_examples=40, deadline=None)
@given(semilattices(), st.sets(st.integers(0, 20), max_size=4))
def test_generated_is_idempotent_and_monotone(L, raw):
    M = {x % L.n for x in raw}
    S = L.generated_subsemilattice(M)
    assert L.generated_subsemilattice(S) == S
    bigger = L.generated_subsemilattice(M | {0})
    assert S <= bigger or 0 in M


@settings(max_examples=60, deadline=None)
@given(semilattices())
def test_meet_is_the_greatest_lower_bound(L):
    n = L.n
    for i in range(n):
        for j in range(n):
            m = L.meet[i, j]
            assert L.leq(m, i) and L.leq(m, j)
            for c in range(n):
                if L.leq(c, i) and L.leq(c, j):
                    assert L.leq(c, m), (c, i, j, m)


def oracle_first_associativity_violation(table):
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = table[table[i][j]][k]
                right = table[i][table[j][k]]
                if left != right:
                    return (i, j, k), left, right
    return None


@st.composite
def commutative_idempotent_tables(draw):
    n = draw(st.integers(1, 5))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = i
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.integers(0, n - 1))
    return table


@settings(max_examples=100, deadline=None)
@given(commutative_idempotent_tables())
def test_associativity_reports_the_first_violation(table):
    first = oracle_first_associativity_violation(table)
    if first is None:
        assert Semilattice(table).n == len(table)
        return
    (i, j, k), left, right = first
    with pytest.raises(AssociativityViolation) as e:
        Semilattice(table)
    assert e.value.triple == (i, j, k)
    assert str(e.value) == f"(({i} ^ {j}) ^ {k}) = {left} but ({i} ^ ({j} ^ {k})) = {right}"


def oracle_first_law_violation(table):
    """The message of the first idempotency, then commutativity (i < j,
    row-major) violation, by loops; None if both laws hold."""
    n = len(table)
    for i in range(n):
        if table[i][i] != i:
            return f"meet[{i}][{i}] = {table[i][i]}, expected {i}"
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                return f"meet[{i}][{j}] = {table[i][j]} but meet[{j}][{i}] = {table[j][i]}"
    return None


@st.composite
def square_tables(draw):
    n = draw(st.integers(1, 5))
    return [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(square_tables())
def test_idempotency_and_commutativity_report_the_first_violation(table):
    message = oracle_first_law_violation(table)
    if message is None:
        return
    with pytest.raises((IdempotencyViolation, CommutativityViolation)) as e:
        Semilattice(table)
    assert str(e.value) == message


def test_finishing_sets_of_a_large_chain_are_its_upsets():
    L = chain(40)
    got = L.enumerate_finishing_subsemilattices()
    assert got == [frozenset(range(k, 40)) for k in reversed(range(40))]
