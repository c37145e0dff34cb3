import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import semilattice as sl
from gradedcstar import spectra as sp
from gradedcstar.errors import InputError, ValidationFailure

import character_references
from character_references import (
    CoverageMismatch,
    NotACharacter,
    finishing_correspondence_reference,
    graded_characters_reference,
    match_characters,
    restriction_reference,
)
from conftest import SCALAR, all_scalar_spec, unital_embedding
from element_references import sort_key
from test_semilattice import semilattices


def commutative_corpus(corpus):
    return {
        name: spec
        for name, spec in corpus.items()
        if gr.components_commutative(spec)
    }


def two_point_bottom_spec(phi_col):
    """Chain of two with a two-point bottom component; phi_col is the
    image of 1 under the structure map."""
    L = sl.chain(2)
    c2 = fd.AlgebraShape([1, 1])
    h = fd.StarHom(SCALAR, c2, np.asarray(phi_col, dtype=complex).reshape(2, 1))
    return gr.GradedSpec(L, [c2, SCALAR], {(0, 1): h})


# ------------------------------------------------------------ brute force

class TestBruteForce:
    def test_single_component(self):
        spec = all_scalar_spec(sl.chain(1))
        chars = sp.brute_force_characters(spec)
        assert len(chars) == 1
        assert abs(chars[0].values[0] - 1.0) < 1e-10

    def test_diamond_count_and_support_sets(self):
        spec = all_scalar_spec(sl.diamond())
        chars = sp.brute_force_characters(spec)
        assert len(chars) == 4
        supports = {
            frozenset(int(i) for i in np.flatnonzero(np.abs(c.values - 1) < 1e-8))
            for c in chars
        }
        assert supports == {
            frozenset({3}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
        }

    def test_chain_counts(self):
        for n in range(2, 9):
            spec = all_scalar_spec(sl.chain(n))
            assert len(sp.brute_force_characters(spec)) == n

    def test_noncommutative_rejected(self, corpus):
        with pytest.raises(sp.NotCommutative):
            sp.brute_force_characters(corpus["m2-chain"])

    def test_deterministic(self):
        spec = all_scalar_spec(sl.diamond())
        a = sp.brute_force_characters(spec)
        b = sp.brute_force_characters(spec)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.values, cb.values)

    def test_every_character_multiplicative(self, corpus):
        for name, spec in commutative_corpus(corpus).items():
            table = sp._product_table(spec)
            for ch in sp.brute_force_characters(spec):
                r = sp.check_character(spec, ch.values, table=table)
                assert r <= 1e-8, name

    def test_idempotents_go_to_zero_or_one(self, corpus):
        for name, spec in commutative_corpus(corpus).items():
            for ch in sp.brute_force_characters(spec):
                for i in range(spec.L.n):
                    v = ch(spec.component_unit(i))
                    assert min(abs(v), abs(v - 1)) < 1e-8, name

    def test_two_point_bottom(self):
        spec = two_point_bottom_spec([1.0, 1.0])
        chars = sp.brute_force_characters(spec)
        assert len(chars) == 3

    def test_retry_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(sp, "EIG_SEPARATION", float("inf"))
        spec = all_scalar_spec(sl.chain(2))
        with pytest.raises(sp.DegenerateGenerator):
            sp.brute_force_characters(spec)

    def test_product_table_matches_gmul(self, corpus):
        # every spec, commutative or not: the table is filled in from the
        # q tensors and must agree with gmul on every basis pair
        for name, spec in corpus.items():
            n = spec.total_dim
            want = np.zeros((n, n, n), dtype=complex)
            for i, a, g in spec.graded_basis():
                x = spec.basis_element(i, a)
                for j, b, h in spec.graded_basis():
                    y = spec.basis_element(j, b)
                    want[g, h] = gr.to_gvector(gr.gmul(x, y))
            assert np.abs(sp._product_table(spec) - want).max() <= 1e-12, name

    def test_corrupted_functional_detected(self):
        spec = all_scalar_spec(sl.diamond())
        ch = sp.brute_force_characters(spec)[0]
        bad = ch.values.copy()
        bad[0] += 0.5
        assert sp.check_character(spec, bad) > 0.1


# ------------------------------------------------------ graded characters

class TestGradedCharacters:
    def test_count_equals_total_dim(self, corpus):
        for name, spec in commutative_corpus(corpus).items():
            chars = sp.graded_characters(spec)
            assert len(chars) == spec.total_dim, name

    def test_all_scalar_value_formula(self, corpus):
        for name, spec in commutative_corpus(corpus).items():
            if not name.startswith("all-scalar"):
                continue
            for ch in sp.graded_characters(spec):
                i, t = ch.tag
                assert t == 0
                for j in range(spec.L.n):
                    want = 1.0 if spec.L.leq(i, j) else 0.0
                    assert abs(ch.values[j] - want) < 1e-10, name

    def test_bottom_character_sees_everything(self):
        spec = all_scalar_spec(sl.diamond())
        chars = {c.tag: c for c in sp.graded_characters(spec)}
        bottom = spec.L.bottom()
        assert np.allclose(chars[(bottom, 0)].values, 1.0)

    def test_noncommutative_component_rejected(self, corpus):
        with pytest.raises(sp.ComponentNotCommutative):
            sp.graded_characters(corpus["mixed-diamond"])

    def test_two_point_bottom_tags(self):
        spec = two_point_bottom_spec([1.0, 1.0])
        chars = sp.graded_characters(spec)
        assert [c.tag for c in chars] == [(0, 0), (0, 1), (1, 0)]
        # both bottom points restrict the top scalar to itself
        assert abs(chars[0].values[2] - 1.0) < 1e-10
        assert abs(chars[1].values[2] - 1.0) < 1e-10

    def test_non_multiplicative_row_detected(self):
        # deliberately invalid spec: phi_01 = 2 is not a *-homomorphism,
        # so coordinate 0 of pi_0 reads 2 on the top unit, an idempotent;
        # validation rejects the map before any row is read
        L = sl.chain(2)
        twice = fd.StarHom(SCALAR, SCALAR, np.array([[2.0]]))
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], {(0, 1): twice})
        with pytest.raises(gr.HomNotStar):
            sp.graded_characters(spec)
        with pytest.raises(NotACharacter):
            graded_characters_reference(spec)

    def test_duplicate_rows_detected(self):
        # deliberately invalid spec: the diagonal map is not the identity,
        # which makes two coordinates of pi_0 read the same functional
        L = sl.chain(2)
        c2 = fd.AlgebraShape([1, 1])
        collapse = fd.StarHom(c2, c2, np.array([[1.0, 0.0], [1.0, 0.0]]))
        spec = gr.GradedSpec(
            L,
            [c2, SCALAR],
            {
                (0, 0): collapse,
                (0, 1): fd.StarHom(SCALAR, c2, np.array([[1.0], [1.0]])),
            },
        )
        with pytest.raises(gr.AxiomAViolation):
            sp.graded_characters(spec)
        with pytest.raises(CoverageMismatch):
            graded_characters_reference(spec)


def scalar_chain_with(n, maps):
    """All-scalar chain(n) with the given 1x1 values replacing some maps."""
    L = sl.chain(n)
    phi = {pair: fd.identity_hom(SCALAR) for pair in L.comparable_pairs()}
    for pair, v in maps.items():
        phi[pair] = fd.StarHom(SCALAR, SCALAR, np.array([[v]], dtype=complex))
    return gr.GradedSpec(L, [SCALAR] * n, phi)


BROKEN_CHARACTER_SPECS = {
    # the points 1 and 2 of the bottom read 2 and 3 on the top unit, an
    # idempotent; (0, 1) is named
    "two-bad-rows": gr.GradedSpec(
        sl.chain(2),
        [fd.AlgebraShape([1, 1, 1]), SCALAR],
        {(0, 1): fd.StarHom(SCALAR, fd.AlgebraShape([1, 1, 1]), [[1.0], [2.0], [3.0]])},
    ),
    "nan-map": scalar_chain_with(3, {(1, 2): np.nan}),
    # rows 0, 2 and 3 of pi read the same functional; (0, 0) and (1, 0)
    # are named
    "coinciding-rows": gr.GradedSpec(
        sl.chain(2),
        [fd.AlgebraShape([1, 1])] * 2,
        {
            pair: fd.StarHom(fd.AlgebraShape([1, 1]), fd.AlgebraShape([1, 1]), m)
            for pair, m in (
                ((0, 0), [[0.0, 0.0], [0.0, 1.0]]),
                ((0, 1), np.eye(2)),
                ((1, 1), [[1.0, 0.0], [1.0, 0.0]]),
            )
        },
    ),
    "imaginary-map": scalar_chain_with(3, {(0, 1): 1j}),
}

# what the oracle raises on each broken spec: the exceptions that
# graded_characters raised before it read its certificate off validation
BROKEN_CHARACTER_ORACLE = {
    "two-bad-rows": (
        NotACharacter,
        "coordinate (0, 1) of pi fails the character axioms by 2.000e+00",
    ),
    "nan-map": (
        NotACharacter,
        "coordinate (0, 0) of pi fails the character axioms by nan",
    ),
    "coinciding-rows": (CoverageMismatch, "characters (0, 0) and (1, 0) coincide"),
    "imaginary-map": (
        NotACharacter,
        "coordinate (0, 0) of pi fails the character axioms by 2.000e+00",
    ),
}


class TestGradedCharactersAgainstReference:
    def test_corpus(self, corpus):
        for name, spec in commutative_corpus(corpus).items():
            got = sp.graded_characters(spec)
            want = graded_characters_reference(spec)
            assert [c.tag for c in got] == [c.tag for c in want], name
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", sorted(BROKEN_CHARACTER_SPECS))
    def test_first_offender(self, name):
        # graded_characters reports what validation reports; the oracle
        # keeps the character-level exception and message
        spec = BROKEN_CHARACTER_SPECS[name]
        exc, message = BROKEN_CHARACTER_ORACLE[name]
        with pytest.raises(exc) as want:
            graded_characters_reference(spec)
        assert str(want.value) == message
        with pytest.raises(ValidationFailure) as validated:
            gr.validate_spec(spec, sp.CHAR_TOL)
        with pytest.raises(ValidationFailure) as got:
            sp.graded_characters(spec)
        assert type(got.value) is type(validated.value)
        assert str(got.value) == str(validated.value)

    def test_nan_fails(self):
        with pytest.raises(gr.HomNotStar, match="residual nan"):
            sp.graded_characters(BROKEN_CHARACTER_SPECS["nan-map"])
        with pytest.raises(NotACharacter, match="by nan"):
            graded_characters_reference(BROKEN_CHARACTER_SPECS["nan-map"])


class TestValidationGuard:
    @pytest.mark.parametrize("name", sorted(BROKEN_CHARACTER_SPECS))
    def test_unvalidated_spec_never_yields_characters(self, name, monkeypatch):
        spec = BROKEN_CHARACTER_SPECS[name]
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(ValidationFailure):
            sp.graded_characters(spec)
        assert calls == [(spec, sp.CHAR_TOL)]
        assert spec.validated_tol == np.inf

    def test_verdict_is_recorded_and_reused(self, monkeypatch):
        spec = all_scalar_spec(sl.diamond())
        gr.validate_spec(spec)
        assert spec.validated_tol == gr.AXIOM_TOL
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a) or real(*a))
        sp.graded_characters(spec)
        assert calls == []
        # a tighter tolerance than the verdict's validates again
        sp.graded_characters(spec, tol=1e-12)
        assert calls == [(spec, 1e-12)]
        assert spec.validated_tol == 1e-12

    def test_restriction_inherits_the_verdict(self):
        spec = all_scalar_spec(sl.diamond())
        sub, _ = gr.restrict_spec(spec, [1, 3])
        assert sub.validated_tol == np.inf
        gr.validate_spec(spec)
        sub, _ = gr.restrict_spec(spec, [1, 3])
        assert sub.validated_tol == gr.AXIOM_TOL


# ----------------------------------------------------------- matching

class TestMatching:
    def test_permutation_matched(self):
        spec = all_scalar_spec(sl.chain(3))
        chars = sp.graded_characters(spec)
        pairing = match_characters(chars, list(reversed(chars)))
        assert len(pairing) == 3

    def test_count_mismatch(self):
        spec = all_scalar_spec(sl.chain(3))
        chars = sp.graded_characters(spec)
        with pytest.raises(CoverageMismatch):
            match_characters(chars, chars[:2])

    def test_unmatched_character(self):
        spec = all_scalar_spec(sl.chain(2))
        chars = sp.graded_characters(spec)
        shifted = [sp.Character(values=c.values + 0.5) for c in chars]
        with pytest.raises(CoverageMismatch):
            match_characters(chars, shifted)

    def test_double_claim(self):
        a = sp.Character(values=np.array([1.0 + 0j]))
        b = sp.Character(values=np.array([1.0 + 0j]))
        with pytest.raises(CoverageMismatch):
            match_characters([a, b], [a, sp.Character(values=np.array([5.0 + 0j]))])


# ----------------------------------------- finishing set correspondence

class TestFinishingCorrespondence:
    def test_diamond(self):
        spec = all_scalar_spec(sl.diamond())
        pairs = sp.finishing_correspondence(spec)
        assert len(pairs) == 4
        sets = {m for _, m in pairs}
        assert sets == {
            frozenset({3}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
        }
        for ch, m in pairs:
            assert ch.finishing_set == m

    def test_chain_suffix_sets(self):
        for n in (2, 5, 8):
            spec = all_scalar_spec(sl.chain(n))
            sets = {m for _, m in sp.finishing_correspondence(spec)}
            assert sets == {
                frozenset(range(i, n)) for i in range(n)
            }

    def test_singleton(self):
        spec = all_scalar_spec(sl.chain(1))
        pairs = sp.finishing_correspondence(spec)
        assert len(pairs) == 1
        ch, m = pairs[0]
        assert m == frozenset({0})
        assert abs(ch.values[0] - 1.0) < 1e-10

    def test_antichain_with_bottom(self):
        spec = all_scalar_spec(sl.antichain_with_bottom(3))
        sets = {m for _, m in sp.finishing_correspondence(spec)}
        assert sets == {
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({0, 1, 2, 3}),
        }

    def test_matrix_component_rejected(self, corpus):
        with pytest.raises(sp.NotAllScalar):
            sp.finishing_correspondence(corpus["m2-chain"])

    def test_nonidentity_map_rejected(self):
        L = sl.chain(2)
        zero_map = fd.StarHom(SCALAR, SCALAR, np.array([[0.0]]))
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], {(0, 1): zero_map})
        with pytest.raises(sp.NotAllScalar):
            sp.finishing_correspondence(spec)

    def test_first_nonidentity_map_named_in_phi_order(self):
        spec = scalar_chain_with(4, {(1, 3): 0.5, (0, 2): np.nan, (2, 3): 1.0 + 1e-9})
        first = next(p for p, h in spec.phi.items() if not np.allclose(h.matrix, 1.0))
        with pytest.raises(sp.NotAllScalar) as exc:
            sp.finishing_correspondence(spec)
        assert str(exc.value) == f"structure map for pair {first} is not the identity"

    def test_first_bad_pair_is_lexicographic_whatever_the_dict_order(self):
        ident = fd.identity_hom(SCALAR)
        half = fd.StarHom(SCALAR, SCALAR, np.array([[0.5]]))
        phi = {(2, 3): half, (1, 3): half, (0, 3): ident, (1, 2): half, (0, 2): half, (0, 1): ident}
        spec = gr.GradedSpec(sl.chain(4), [SCALAR] * 4, phi)
        with pytest.raises(
            sp.NotAllScalar, match=r"^structure map for pair \(0, 2\) is not the identity$"
        ):
            sp.finishing_correspondence(spec)

    def test_count_matches_enumeration_up_to_size_8(self):
        for build in (
            lambda: sl.chain(6),
            lambda: sl.diamond(),
            lambda: sl.antichain_with_bottom(5),
            lambda: sl.product_semilattice(sl.chain(2), sl.chain(3)),
        ):
            L = build()
            spec = all_scalar_spec(L)
            pairs = sp.finishing_correspondence(spec)
            assert len(pairs) == len(L.enumerate_finishing_subsemilattices())


    def test_indicator_mismatch_names_first_offender(self):
        # phi_12 = phi_02 = 1 + 5e-6 under a forged verdict: the one
        # comparison of Pi with the order matrix at tol runs before the
        # verdict is read and names the first pair, row-major. The
        # reference keeps the np.isclose screen, which lets the spec
        # through, and rejects it as a failed check, as the comparison
        # after validation used to (BijectionFailure)
        spec = scalar_chain_with(3, {(1, 2): 1.0 + 5e-6, (0, 2): 1.0 + 5e-6})
        spec.validated_tol = 0.0
        with pytest.raises(sp.NotAllScalar) as exc:
            sp.finishing_correspondence(spec)
        assert str(exc.value) == "structure map for pair (0, 2) is not the identity"
        with pytest.raises(ValidationFailure):
            finishing_correspondence_reference(spec)

    def test_no_cubic_array_at_chain_128(self):
        # the product table alone would be 128^3 complex numbers, 32 MiB
        spec = all_scalar_spec(sl.chain(128))
        gr.validate_spec(spec)
        tracemalloc.start()
        try:
            pairs = sp.finishing_correspondence(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 128
        assert peak < 8 * 2**20


# ------------------------------------- fast routes against their oracles

def assert_same_characters(got, want):
    assert [c.tag for c in got] == [c.tag for c in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.values, b.values)


def assert_same_pairs(got, want):
    assert [m for _, m in got] == [m for _, m in want]
    assert_same_characters([c for c, _ in got], [c for c, _ in want])
    assert [c.finishing_set for c, _ in got] == [c.finishing_set for c, _ in want]


def assert_same_restriction(spec, M):
    """Equal reports, or the same exception with the same message."""
    try:
        want = restriction_reference(spec, M)
    except InputError as exc:
        with pytest.raises(type(exc)) as got:
            sp.restriction_spectrum_map(spec, M)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    got = sp.restriction_spectrum_map(spec, M)
    assert got.contraction == want.contraction
    assert got.remap == want.remap
    assert np.array_equal(got.sub_spec.L.meet, want.sub_spec.L.meet)
    assert got.sub_spec.L.names == want.sub_spec.L.names
    assert_same_characters([a for a, _ in got.assignments], [a for a, _ in want.assignments])
    assert_same_characters([b for _, b in got.assignments], [b for _, b in want.assignments])


def restriction_targets(L):
    """The whole set, every finishing set and every maximal element on
    its own: cofinal or not, always meet-closed."""
    maximal = np.flatnonzero(L.le.sum(axis=1) == 1).tolist()
    sets = [frozenset(range(L.n))] + [L.finishing_set(k) for k in range(L.n)]
    return sets + [frozenset({m}) for m in maximal]


def c2_chain(n, maps):
    """chain(n) with C^2 at every index and the given 2x2 structure maps,
    the identity elsewhere."""
    c2 = fd.AlgebraShape([1, 1])
    L = sl.chain(n)
    phi = {pair: fd.identity_hom(c2) for pair in L.comparable_pairs()}
    for pair, m in maps.items():
        phi[pair] = fd.StarHom(c2, c2, np.asarray(m, dtype=complex))
    return gr.GradedSpec(L, [c2] * n, phi)


# unital maps that break the character axioms, so that validation rejects
# them; each names its restriction's first offender
UNCERTIFIED_RESTRICTIONS = {
    "smeared-pullback": (c2_chain(2, {(0, 1): [[0.5, 0.5], [0.5, 0.5]]}), [1]),
    "second-row-smeared": (c2_chain(2, {(0, 1): [[1.0, 0.0], [0.5, 0.5]]}), [1]),
    "path-dependent": (c2_chain(3, {(0, 2): [[0.0, 1.0], [1.0, 0.0]]}), [1, 2]),
}


class TestAgainstReferences:
    @pytest.mark.parametrize("name", sorted(UNCERTIFIED_RESTRICTIONS))
    def test_oracle_mismatch_order_and_message(self, name, monkeypatch):
        # validation rejects these specs, so both routes are handed the
        # rows of Pi unchecked to reach restriction's own checks
        spec, M = UNCERTIFIED_RESTRICTIONS[name]
        with pytest.raises(ValidationFailure):
            gr.validate_spec(spec)
        monkeypatch.setattr(spec, "validated_tol", 0.0)
        monkeypatch.setattr(
            character_references,
            "graded_characters_reference",
            lambda s, tol=None: sp.graded_characters(s),
        )
        with pytest.raises(sp.OracleMismatch) as want:
            restriction_reference(spec, M)
        with pytest.raises(sp.OracleMismatch) as got:
            sp.restriction_spectrum_map(spec, M)
        assert str(got.value) == str(want.value)

    def test_commutative_corpus(self, corpus):
        specs = dict(commutative_corpus(corpus))
        specs["two-point-bottom"] = two_point_bottom_spec([1.0, 1.0])
        # valid, but not unital into the top: restriction onto it fails
        specs["two-point-non-unital"] = two_point_bottom_spec([1.0, 0.0])
        for name, spec in specs.items():
            gr.validate_spec(spec)
            assert_same_characters(
                sp.graded_characters(spec), graded_characters_reference(spec)
            )
            if name.startswith("all-scalar"):
                assert_same_pairs(
                    sp.finishing_correspondence(spec),
                    finishing_correspondence_reference(spec),
                )
            for M in restriction_targets(spec.L):
                assert_same_restriction(spec, M)

    @settings(max_examples=40, deadline=None)
    @given(semilattices())
    def test_random_all_scalar(self, L):
        spec = all_scalar_spec(L)
        gr.validate_spec(spec)
        assert_same_characters(
            sp.graded_characters(spec), graded_characters_reference(spec)
        )
        assert_same_pairs(
            sp.finishing_correspondence(spec),
            finishing_correspondence_reference(spec),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        semilattices(),
        st.sets(st.integers(0, 63), max_size=4),
        st.booleans(),
        st.booleans(),
    )
    def test_random_restriction(self, L, picks, add_maximal, close):
        spec = all_scalar_spec(L)
        gr.validate_spec(spec)
        M = {p % L.n for p in picks}
        if add_maximal:
            M |= set(np.flatnonzero(L.le.sum(axis=1) == 1).tolist())
        if close and M:
            M = L.generated_subsemilattice(M)
        assert_same_restriction(spec, M)


# ------------------------------------------------------- character order

# parts that tie after rounding to six decimals, among themselves or with
# their neighbours: signed zeros, values below the last decimal, decimal
# half-way points
TIED_PARTS = (
    0.0, -0.0, 1e-7, -1e-7, 4.9e-7, 5e-7, -5e-7, 2.5e-6, 3.5e-6,
    0.5, -0.5, 0.4999995, 1.0, -1.0, 1.0000005, 0.1234565,
)


@st.composite
def value_stacks(draw):
    part = st.one_of(st.sampled_from(TIED_PARTS), st.floats(-2.0, 2.0))
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 9))
    parts = draw(st.lists(part, min_size=2 * width * rows, max_size=2 * width * rows))
    return (np.asarray(parts[0::2]) + 1j * np.asarray(parts[1::2])).reshape(rows, width)


def assert_order_matches_sort_key(chars):
    want = sorted(chars, key=lambda c: sort_key(c.values))
    got = sp._sorted(chars)
    assert [id(c) for c in got] == [id(c) for c in want]


class TestCharacterOrder:
    def test_corpus(self, corpus, rng):
        for spec in commutative_corpus(corpus).values():
            chars = sp.graded_characters(spec)
            for _ in range(3):
                assert_order_matches_sort_key(chars)
                chars = [chars[k] for k in rng.permutation(len(chars))]

    @settings(max_examples=200, deadline=None)
    @given(value_stacks())
    def test_stacks_with_ties(self, values):
        assert_order_matches_sort_key([sp.Character(values=row) for row in values])


# ------------------------------------------------------------ restriction

class TestRestriction:
    def test_full_set_is_identity(self):
        spec = all_scalar_spec(sl.diamond())
        report = sp.restriction_spectrum_map(spec, range(4))
        assert report.contraction == {i: i for i in range(4)}
        for src, dst in report.assignments:
            assert src.tag == dst.tag
            assert np.allclose(src.values, dst.values)

    def test_diamond_upper_pair(self):
        spec = all_scalar_spec(sl.diamond())
        L = spec.L
        a, b = L.index_of("a"), L.index_of("b")
        bot, top = L.index_of("0"), L.index_of("1")
        report = sp.restriction_spectrum_map(spec, {a, top})
        assert report.contraction == {bot: a, a: a, b: top, top: top}
        tag_map = {
            src.tag[0]: dst.tag[0] for src, dst in report.assignments
        }
        assert tag_map == {
            bot: report.remap[a],
            a: report.remap[a],
            b: report.remap[top],
            top: report.remap[top],
        }

    def test_chain_to_single_point(self):
        spec = all_scalar_spec(sl.chain(3))
        report = sp.restriction_spectrum_map(spec, {2})
        assert report.sub_spec.L.n == 1
        targets = {dst.tag for _, dst in report.assignments}
        assert targets == {(0, 0)}

    def test_restricted_values_agree(self):
        spec = all_scalar_spec(sl.diamond())
        L = spec.L
        M = sorted({L.index_of("a"), L.index_of("1")})
        report = sp.restriction_spectrum_map(spec, M)
        for src, dst in report.assignments:
            for old in M:
                assert (
                    abs(src.values[old] - dst.values[report.remap[old]]) < 1e-8
                )

    def test_not_cofinal(self):
        spec = all_scalar_spec(sl.diamond())
        with pytest.raises(sp.NotCofinal):
            sp.restriction_spectrum_map(spec, {spec.L.index_of("a")})

    def test_not_meet_closed(self):
        spec = all_scalar_spec(sl.diamond())
        L = spec.L
        with pytest.raises(InputError):
            sp.restriction_spectrum_map(
                spec, {L.index_of("a"), L.index_of("b")}
            )

    def test_non_unital_map_rejected(self):
        spec = two_point_bottom_spec([1.0, 0.0])
        gr.validate_spec(spec)  # valid, but the map is not unital
        with pytest.raises(InputError):
            sp.restriction_spectrum_map(spec, {1})

    def test_noncommutative_rejected(self, corpus):
        with pytest.raises(sp.ComponentNotCommutative):
            sp.restriction_spectrum_map(corpus["m2-chain"], {1})

    def test_two_point_bottom_contraction(self):
        # both bottom points sit over the single top point
        spec = two_point_bottom_spec([1.0, 1.0])
        report = sp.restriction_spectrum_map(spec, {1})
        targets = [dst.tag for _, dst in report.assignments]
        assert targets == [(0, 0), (0, 0), (0, 0)]

    def test_nondegeneracy_flag_recorded(self):
        spec = all_scalar_spec(sl.chain(2))
        report = sp.restriction_spectrum_map(spec, {1})
        assert report.nondegeneracy_check == "unital"


# ------------------------------------------------- polygon identification

def genus_by_orbit_walk(n):
    """The SurfaceReport of the 2n-gon identification, its vertex classes
    found by walking the orbits of j -> j + (n - 1) mod 2n."""
    total = 2 * n
    seen = [False] * total
    orbits = 0
    for start in range(total):
        if seen[start]:
            continue
        orbits += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = (j + n - 1) % total
    euler = orbits - n + 1
    return sp.SurfaceReport(n, orbits, euler, (2 - euler) // 2, orbits > 1)


class TestSurface:
    def test_closed_form_matches_the_orbit_walk(self):
        for n in range(2, 2001):
            assert sp.genus_of_line_arrangement(n) == genus_by_orbit_walk(n), n

    def test_huge_n_returns_at_once(self):
        start = time.perf_counter()
        rep = sp.genus_of_line_arrangement(10**12)
        assert time.perf_counter() - start < 1.0
        assert rep == sp.SurfaceReport(10**12, 1, 2 - 10**12, 5 * 10**11, False)
        assert sp.genus_of_line_arrangement(10**12 + 1).vertex_orbits == 2

    def test_frozen_small_cases(self):
        expect = {
            2: (1, 0, 1, False),
            3: (2, 0, 1, True),
            4: (1, -2, 2, False),
            5: (2, -2, 2, True),
        }
        for n, (orbits, euler, genus, pinched) in expect.items():
            rep = sp.genus_of_line_arrangement(n)
            assert rep.vertex_orbits == orbits, n
            assert rep.euler_char == euler, n
            assert rep.genus == genus, n
            assert rep.pinched == pinched, n

    def test_orbit_count_matches_gcd(self):
        for n in range(2, 51):
            rep = sp.genus_of_line_arrangement(n)
            assert rep.vertex_orbits == math.gcd(n - 1, 2 * n), n

    def test_genus_is_floor_half(self):
        for n in range(2, 51):
            rep = sp.genus_of_line_arrangement(n)
            assert rep.genus == n // 2, n
            assert rep.pinched == (n % 2 == 1), n

    def test_bad_input(self):
        for bad in (1, 0, -3, 2.5):
            with pytest.raises(sp.BadN):
                sp.genus_of_line_arrangement(bad)


# ------------------------------------------------------------- character

class TestCharacterObject:
    def test_evaluation_is_linear(self):
        spec = all_scalar_spec(sl.chain(2))
        ch = sp.graded_characters(spec)[0]
        x = spec.component_unit(0) + 2.0 * spec.component_unit(1)
        assert abs(ch(x) - (ch.values[0] + 2 * ch.values[1])) < 1e-12
