"""Semilattice table validation and the finishing-set combinatorics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar.graded import covering_pairs
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
    assert L.meet_of(1, 2) == 1


def test_diamond_is_valid_and_has_expected_order():
    L = diamond()
    a, b = L.index_of("a"), L.index_of("b")
    assert L.meet_of(a, b) == L.index_of("0")
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
    from gradedcstar.errors import InputError

    with pytest.raises(InputError):
        Semilattice([[0, 5], [5, 1]])


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
    assert P.meet_of(1, 2) == 0
    assert P.bottom() == 0
    assert P.top() == 3


def test_product_with_singleton_is_isomorphic():
    L = diamond()
    P = product_semilattice(L, chain(1))
    assert P.n == L.n
    assert all(
        P.meet_of(i, j) == L.meet_of(i, j) for i in range(L.n) for j in range(L.n)
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
            m = L.meet_of(i, j)
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


def test_finishing_sets_of_a_large_chain_are_its_upsets():
    L = chain(40)
    got = L.enumerate_finishing_subsemilattices()
    assert got == [frozenset(range(k, 40)) for k in reversed(range(40))]
