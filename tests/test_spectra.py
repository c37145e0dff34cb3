import math

import numpy as np
import pytest

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import semilattice as sl
from gradedcstar import spectra as sp
from gradedcstar.errors import InputError, ValidationFailure

from conftest import SCALAR, all_scalar_spec, unital_embedding


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
        # so coordinate 0 of pi_0 reads 2 on the top unit, an idempotent
        L = sl.chain(2)
        twice = fd.StarHom(SCALAR, SCALAR, np.array([[2.0]]))
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], {(0, 1): twice})
        with pytest.raises(sp.NotACharacter):
            sp.graded_characters(spec)

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
        with pytest.raises(sp.CoverageMismatch):
            sp.graded_characters(spec)


def graded_characters_reference(spec, tol=sp.CHAR_TOL):
    """graded_characters one character and one pair at a time: the
    pairwise distinctness loop, then check_character per character."""
    chars = [
        sp.Character(values=spec.pi[g].copy(), tag=(i, a))
        for i, a, g in spec.graded_basis()
    ]
    for a in range(len(chars)):
        for b in range(a + 1, len(chars)):
            if fd.maxabs(chars[a].values - chars[b].values) <= tol:
                raise sp.CoverageMismatch(
                    f"characters {chars[a].tag} and {chars[b].tag} coincide"
                )
    for ch in chars:
        r = sp.check_character(spec, ch.values, tol)
        if not r <= tol:
            raise sp.NotACharacter(
                f"coordinate {ch.tag} of pi fails the character axioms by {r:.3e}"
            )
    return chars


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
        spec = BROKEN_CHARACTER_SPECS[name]
        with pytest.raises(ValidationFailure) as want:
            graded_characters_reference(spec)
        with pytest.raises(ValidationFailure) as got:
            sp.graded_characters(spec)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_nan_fails(self):
        with pytest.raises(sp.NotACharacter, match="by nan"):
            sp.graded_characters(BROKEN_CHARACTER_SPECS["nan-map"])


# ----------------------------------------------------------- matching

class TestMatching:
    def test_permutation_matched(self):
        spec = all_scalar_spec(sl.chain(3))
        chars = sp.graded_characters(spec)
        pairing = sp.match_characters(chars, list(reversed(chars)))
        assert len(pairing) == 3

    def test_count_mismatch(self):
        spec = all_scalar_spec(sl.chain(3))
        chars = sp.graded_characters(spec)
        with pytest.raises(sp.CoverageMismatch):
            sp.match_characters(chars, chars[:2])

    def test_unmatched_character(self):
        spec = all_scalar_spec(sl.chain(2))
        chars = sp.graded_characters(spec)
        shifted = [sp.Character(values=c.values + 0.5) for c in chars]
        with pytest.raises(sp.CoverageMismatch):
            sp.match_characters(chars, shifted)

    def test_double_claim(self):
        a = sp.Character(values=np.array([1.0 + 0j]))
        b = sp.Character(values=np.array([1.0 + 0j]))
        with pytest.raises(sp.CoverageMismatch):
            sp.match_characters([a, b], [a, sp.Character(values=np.array([5.0 + 0j]))])


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

class TestSurface:
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
