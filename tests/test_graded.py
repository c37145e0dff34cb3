import functools
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import spectra as sp
from gradedcstar import workbench as wb
from gradedcstar.errors import GradedCstarError, InputError, ValidationFailure

from conftest import (
    M2,
    SCALAR,
    all_scalar_spec,
    block_chain_spec,
    m2_chain_spec,
    mixed_diamond_spec,
    standard_corpus,
    unital_embedding,
)
from axiom_b_references import (
    axiom_b_kappas,
    axiom_b_reference,
    composition_reference,
    validate_spec_reference,
)
from closure_references import complete_phi_by_enumeration
from element_references import ideal_leak_reference, morphism_reference, q_axioms_reference


def as_matrix(x):
    assert len(x.mats) == 1
    return x.mats[0]


def scalar_of(x):
    return complex(as_matrix(x)[0, 0])


def graded_close(x, y, tol=1e-10):
    return all(fd.frob_norm(a - b) <= tol for a, b in zip(x.comps, y.comps))


# --------------------------------------------------------- construction

class TestConstruction:
    def test_missing_hom_rejected(self):
        L = sl.chain(2)
        with pytest.raises(gr.MissingHom):
            gr.GradedSpec(L, [SCALAR, SCALAR], {})

    def test_wrong_component_count(self):
        with pytest.raises(gr.SpecMismatch):
            gr.GradedSpec(sl.chain(2), [SCALAR], {})

    def test_noncomparable_key_rejected(self):
        L = sl.antichain_with_bottom(2)
        # indices 1 and 2 are incomparable atoms
        phi = {(1, 2): fd.identity_hom(SCALAR)}
        with pytest.raises(gr.SpecMismatch):
            gr.GradedSpec(L, [SCALAR] * 3, phi)

    def test_out_of_range_key_named_as_given(self):
        ident = fd.identity_hom(SCALAR)
        for key in [(0, 5), (-1, 1), (2, 0)]:
            with pytest.raises(
                gr.SpecMismatch,
                match=rf"^phi given for pair \({key[0]}, {key[1]}\), outside indices 0\.\.1$",
            ):
                gr.GradedSpec(sl.chain(2), [SCALAR] * 2, {(0, 1): ident, key: ident})

    def test_non_integer_key_named_as_given(self):
        ident = fd.identity_hom(SCALAR)
        for key in [(0.0, 1), (False, True), (0, "1")]:
            with pytest.raises(
                gr.SpecMismatch,
                match=rf"^phi given for pair \({key[0]}, {key[1]}\), outside indices 0\.\.1$",
            ):
                gr.GradedSpec(sl.chain(2), [SCALAR] * 2, {key: ident})
        spec = gr.GradedSpec(sl.chain(2), [SCALAR] * 2, {(np.int64(0), np.int64(1)): ident})
        assert list(spec.phi) == [(0, 0), (0, 1), (1, 1)]

    def test_first_missing_pair_is_lexicographic(self):
        ident = fd.identity_hom(SCALAR)
        with pytest.raises(gr.MissingHom, match=r"^no structure morphism for 0 <= 3$"):
            gr.GradedSpec(sl.chain(4), [SCALAR] * 4, {(2, 3): ident, (0, 1): ident, (0, 2): ident})

    def test_hom_shape_checked(self):
        L = sl.chain(2)
        bad = fd.identity_hom(M2)  # should be scalars -> M2
        with pytest.raises(fd.ShapeMismatch):
            gr.GradedSpec(L, [M2, SCALAR], {(0, 1): bad})

    def test_diagonals_autofilled(self):
        spec = m2_chain_spec()
        for i in range(2):
            h = spec.structure_map(i, i)
            assert np.allclose(h.matrix, np.eye(spec.components[i].dim))

    def test_structure_map_incomparable(self):
        spec = all_scalar_spec(sl.antichain_with_bottom(2))
        with pytest.raises(gr.MissingHom):
            spec.structure_map(1, 2)

    def test_total_dim_and_offsets(self):
        spec = mixed_diamond_spec()
        assert spec.total_dim == 4 + 4 + 1 + 1
        assert spec.offsets.tolist() == [0, 4, 8, 9]
        assert spec.offsets.dtype == np.intp
        with pytest.raises(ValueError):
            spec.offsets[1] = 0

    def test_structure_map_names_a_bad_index(self):
        # a negative index must not be read as a name through wrap-around
        spec = wb.demo_spec("chain-3")
        for key, message in [
            ((-1, 2), "index -1 is out of range for 3 indices"),
            ((0, -1), "index -1 is out of range for 3 indices"),
            ((0, 3), "index 3 is out of range for 3 indices"),
            ((0.5, 1), "index 0.5 is not an integer"),
            ((2, 0), "(2, 0) is not comparable"),
        ]:
            with pytest.raises(InputError) as e:
                spec.structure_map(*key)
            assert str(e.value) == message
            with pytest.raises(KeyError):
                spec.phi[key]


class TestStoredPi:
    """The maps live once, in the read-only Pi; phi is a read-only view."""

    def test_no_stale_pi_after_validation(self):
        spec = wb.demo_spec("chain-3")
        gr.validate_spec(spec)
        rows = [c.values for c in sp.graded_characters(spec)]
        with pytest.raises(ValueError):
            spec.phi[(0, 2)].matrix[0, 0] = 0
        gr.validate_spec(spec)
        assert all(
            np.array_equal(c.values, r) for c, r in zip(sp.graded_characters(spec), rows)
        )
        # the same maps with that entry changed fail the axioms
        m = spec.phi[(0, 2)].matrix.copy()
        m[0, 0] = 0
        fresh = gr.GradedSpec(
            spec.L, spec.components, {**spec.phi, (0, 2): fd.StarHom(SCALAR, SCALAR, m)}
        )
        with pytest.raises(gr.AxiomBViolation, match=r"\(i=1, j=2, m=0\)"):
            gr.validate_spec(fresh)

    def test_writes_raise(self):
        spec = m2_chain_spec()
        with pytest.raises(ValueError):
            spec.phi[(0, 1)].matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            spec.pi[0, 0] = 2.0
        with pytest.raises(TypeError):
            spec.phi[(0, 1)] = spec.phi[(0, 0)]
        with pytest.raises(TypeError):
            del spec.phi[(0, 1)]

    def test_caller_arrays_do_not_reach_spec(self):
        h = unital_embedding(M2)
        spec = gr.GradedSpec(sl.chain(2), [M2, SCALAR], {(0, 1): h})
        pi = spec.pi.copy()
        h.matrix[:] = 7.0
        assert np.array_equal(spec.pi, pi)
        assert np.array_equal(spec.phi[(0, 1)].matrix, pi[:4, 4:])

    def test_phi_views_share_pi(self, corpus):
        for name, spec in corpus.items():
            for key, h in spec.phi.items():
                assert np.shares_memory(h.matrix, spec.pi), (name, key)
                assert np.array_equal(h.matrix, spec.pi[spec.span(key[0]), spec.span(key[1])])

    def test_phi_iterates_comparable_pairs_lexicographically(self, corpus):
        # however the maps were given or built, phi lists L's comparable
        # pairs in order, diagonals included
        spec = corpus["mixed-diamond"]
        items = list(spec.phi.items())
        np.random.default_rng(5).shuffle(items)
        built = {
            "init": gr.GradedSpec(spec.L, spec.components, dict(items)),
            "from_pi": gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi),
            "restrict": gr.restrict_spec(spec, [0, 1, 3])[0],
            "quotient": gr.verify_ideal_gradation(spec, {0: {0}}).quotient,
            "tensor": pr.tensor_spec(spec, corpus["all-scalar-chain2"]),
            "crossed": pr.crossed_product(wb.build_coset_spec(*wb.coset_z4_family())[1]),
        }
        for name, out in built.items():
            assert list(out.phi) == out.L.comparable_pairs(), name
            assert len(out.phi) == len(out.L.comparable_pairs()), name
        assert built["init"].pi.tobytes() == spec.pi.tobytes()

    def test_phi_order_given_pairs_then_diagonals(self):
        # the given pairs and the omitted diagonals are listed together in
        # lexicographic order; the order of the given dict does not carry
        ident = fd.identity_hom(SCALAR)
        spec = gr.GradedSpec(sl.chain(3), [SCALAR] * 3, {(1, 2): ident, (0, 2): ident, (0, 1): ident})
        assert list(spec.phi) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_phi_order_is_exact(self):
        # a given diagonal first, then the off-diagonal pairs: phi still
        # lists every comparable pair of chain(5) lexicographically
        ident = fd.identity_hom(SCALAR)
        phi = {(1, 1): ident}
        phi.update({pair: ident for pair in sl.chain(5).comparable_pairs() if pair[0] != pair[1]})
        spec = gr.GradedSpec(sl.chain(5), [SCALAR] * 5, phi)
        assert list(spec.phi) == [(i, j) for i in range(5) for j in range(i, 5)]
        assert len(spec.phi) == 15

    def test_rebound_matrix_does_not_reach_spec(self):
        # phi hands out a new StarHom per lookup, so rebinding an
        # attribute changes only that object
        spec = wb.demo_spec("chain-3")
        spec.phi[(0, 2)].matrix = np.zeros((1, 1))
        assert spec.phi[(0, 2)].matrix[0, 0] == 1
        entry = next(e for e in wb.spec_to_document(spec)["phi"] if (e["to"], e["from"]) == ("0", "2"))
        assert entry["matrix"] == [[[1.0, 0.0]]]

    def test_phi_is_a_mapping_of_comparable_pairs(self):
        spec = mixed_diamond_spec()
        for key in [(1, 2), (3, 0), (0, 4), (-1, 3), (0,), "01", (0.0, 3)]:
            assert key not in spec.phi
            with pytest.raises(KeyError):
                spec.phi[key]
        assert (np.int64(0), np.int64(3)) in spec.phi
        assert set(spec.phi) == set(spec.L.comparable_pairs())
        with pytest.raises(gr.MissingHom, match=r"\(a, b\) is not comparable"):
            spec.structure_map(1, 2)
        with pytest.raises(AttributeError):
            spec.phi = {}


class TestFromPi:
    """GradedSpec.from_pi: the spec whose maps are the blocks of pi."""

    def test_matches_the_per_pair_constructor(self, corpus):
        for name, spec in corpus.items():
            again = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi)
            assert again.pi.tobytes() == spec.pi.tobytes(), name
            assert np.array_equal(again.offsets, spec.offsets) and again.total_dim == spec.total_dim
            assert gr.validate_spec(again) == gr.validate_spec(spec), name

    def test_wrong_shape(self):
        with pytest.raises(fd.ShapeMismatch, match=r"^pi \(4, 4\), expected \(5, 5\)$"):
            gr.GradedSpec.from_pi(sl.chain(2), [M2, SCALAR], np.eye(4))
        with pytest.raises(fd.ShapeMismatch, match=r"^pi \(5,\), expected \(5, 5\)$"):
            gr.GradedSpec.from_pi(sl.chain(2), [M2, SCALAR], np.ones(5))

    def test_component_checks(self):
        with pytest.raises(gr.SpecMismatch, match="1 components for 2 indices"):
            gr.GradedSpec.from_pi(sl.chain(2), [SCALAR], np.eye(1))
        with pytest.raises(gr.SpecMismatch, match="is not an AlgebraShape"):
            gr.GradedSpec.from_pi(sl.chain(2), [SCALAR, 1], np.eye(2))

    def test_nonzero_block_off_the_order_names_the_first_pair(self):
        L = sl.diamond()  # 0 < a, b < 1
        pi = L.le.astype(float)
        pi[3, 0] = 0.5  # ("1", "0"), after ("a", "b") in row-major order
        pi[1, 2] = np.nan  # a NaN is nonzero
        with pytest.raises(
            gr.SpecMismatch, match=r"^pi is nonzero at non-comparable pair \(a, b\)$"
        ):
            gr.GradedSpec.from_pi(L, [SCALAR] * 4, pi)
        pi[1, 2] = 0
        with pytest.raises(
            gr.SpecMismatch, match=r"^pi is nonzero at non-comparable pair \(1, 0\)$"
        ):
            gr.GradedSpec.from_pi(L, [SCALAR] * 4, pi)

    def test_first_pair_across_block_sizes(self):
        # pair (1, 0) is the first row-major pair off the order, though its
        # nonzero entry sits after pair (1, 2)'s in the coordinates
        L = sl.antichain_with_bottom(2)
        comps = [M2, fd.AlgebraShape([1, 1]), SCALAR]
        pi = np.zeros((7, 7))
        pi[6, 4] = pi[4, 6] = pi[5, 3] = 1.0
        with pytest.raises(gr.SpecMismatch, match=r"pair \(1, 0\)$"):
            gr.GradedSpec.from_pi(L, comps, pi)

    def test_caller_array_does_not_reach_spec(self):
        L = sl.chain(3)
        pi = L.le.astype(float)
        spec = gr.GradedSpec.from_pi(L, [SCALAR] * 3, pi)
        pi[0, 2] = 7.0
        assert spec.pi[0, 2] == 1
        assert spec.phi[(0, 2)].matrix[0, 0] == 1
        with pytest.raises(ValueError):
            spec.pi[0, 2] = 7.0
        gr.validate_spec(spec)

    def test_phi_order_off_diagonal_row_major_then_diagonals(self):
        # from_pi lists the diagonals among the off-diagonal pairs, in
        # lexicographic order
        L = sl.diamond()
        spec = gr.GradedSpec.from_pi(L, [SCALAR] * 4, L.le)
        assert list(spec.phi) == [
            (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)
        ]


class TestNoPerPairObjects:
    """Builders that have pi write it in one step; readers read pi. No
    StarHom is built per comparable pair."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = fd.StarHom.__init__

        def counting(self, source, target, matrix):
            calls.append((source, target))
            init(self, source, target, matrix)

        monkeypatch.setattr(fd.StarHom, "__init__", counting)
        return calls

    def test_builders_and_readers(self, built):
        chain = wb.build_all_scalar(sl.chain(40))
        gr.validate_spec(chain)
        assert built == []
        s3, action = wb.build_coset_spec(*wb.coset_s3_family())
        gr.validate_spec(s3)
        # one map per (group element, index) for the action, none per pair
        assert len(built) == len(action.maps) == 6 * s3.L.n
        del built[:]
        t = pr.tensor_spec(chain, s3)
        gr.validate_spec(t)
        sub, _ = gr.restrict_spec(t, range(0, t.L.n, 2))
        gr.validate_spec(sub)
        assert built == []
        spec = mixed_diamond_spec()
        del built[:]
        report = gr.verify_ideal_gradation(spec, {0: [0]})
        gr.validate_spec(report.quotient)
        # the quotient maps, one per index, are the only ones
        assert len(built) == len(report.quotient_maps) == 4


# ----------------------------------------------------------- validation

@st.composite
def intersection_semilattices(draw):
    """The meet-semilattice of a random family of subsets of a 4-element
    set, closed under intersection, with intersection as meet (over a
    large enough set, every finite meet-semilattice is one of these)."""
    seeds = draw(st.lists(st.frozensets(st.integers(0, 3)), min_size=1, max_size=6))
    family = set(seeds)
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    index = {s: k for k, s in enumerate(sets)}
    return sl.Semilattice([[index[a & b] for b in sets] for a in sets])


class TestValidateSpec:
    def test_corpus_passes(self, corpus):
        for name, spec in corpus.items():
            report = gr.validate_spec(spec)
            assert report.axiom_b_residual <= 1e-12, name
            assert report.identity_residual <= 1e-12, name

    def test_identity_axiom_violation(self):
        L = sl.chain(2)
        phi = {
            (0, 1): fd.identity_hom(SCALAR),
            (1, 1): fd.StarHom(SCALAR, SCALAR, np.array([[2.0]])),
        }
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], phi)
        with pytest.raises(gr.AxiomAViolation):
            gr.validate_spec(spec)

    def test_non_star_hom_flagged(self):
        L = sl.chain(2)
        phi = {(0, 1): fd.StarHom(SCALAR, SCALAR, np.array([[2.0]]))}
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], phi)
        with pytest.raises(gr.HomNotStar):
            gr.validate_spec(spec)

    def test_compatibility_violation(self):
        # three-level chain; the middle-to-top map is the corner embedding
        # diag(y, 0) while bottom-to-top is unital, so pushing a product
        # down disagrees with the product of pushdowns
        L = sl.chain(3)
        corner = fd.StarHom(SCALAR, M2, np.array([[1.0], [0], [0], [0]]))
        phi = {
            (1, 2): corner,
            (0, 1): fd.identity_hom(M2),
            (0, 2): unital_embedding(M2),
        }
        spec = gr.GradedSpec(L, [M2, M2, SCALAR], phi)
        with pytest.raises(gr.AxiomBViolation) as exc:
            gr.validate_spec(spec)
        assert exc.value.residual > 0.5

    def test_nan_structure_map_fails(self):
        # max(0.0, nan) is 0.0 and nan > tol is False; neither may let a
        # non-finite map through
        L = sl.chain(2)
        phi = {(0, 1): fd.StarHom(SCALAR, SCALAR, np.array([[np.nan]]))}
        spec = gr.GradedSpec(L, [SCALAR, SCALAR], phi)
        with pytest.raises(gr.HomNotStar, match="residual nan"):
            gr.validate_spec(spec)

    def test_stacked_hom_residuals_match_single_checks(self, corpus):
        # the report holds the residuals of the check that decided: the
        # matrix-unit relations where they certify the map, else the basis
        # pairs, which are within unit_kappa of the relations
        for name, spec in corpus.items():
            report = gr.validate_spec(spec)
            decided = []
            for h in spec.phi.values():
                full = fd.mult_residuals(h.source, h.target, h.matrix).max(initial=0.0)
                if max(h.source.blocks) > 1:
                    rel = float(fd.unit_relation_residuals(h.source, h.target, h.matrix))
                    assert full <= fd.unit_kappa(h.source) * rel, name
                    if fd.unit_kappa(h.source) * rel <= gr.AXIOM_TOL:
                        full = rel
                decided.append(full)
            singles = [fd.validate_starhom(h) for h in spec.phi.values()]
            assert report.hom_mult_residual == pytest.approx(max(decided), abs=1e-15), name
            assert report.hom_mult_residual == pytest.approx(
                max(r.max_mult_residual for r in singles), abs=1e-15
            ), name
            assert report.hom_star_residual == pytest.approx(
                max(r.max_star_residual for r in singles), abs=1e-15
            ), name

    def test_report_counts_pairs(self, corpus):
        spec = corpus["all-scalar-chain2"]
        report = gr.validate_spec(spec)
        # one check per ordered pair (i, j) and each m under i ^ j:
        # (0,0),(0,1),(1,0) see only m=0; (1,1) sees m=0 and m=1
        assert report.pairs_checked == 5

    @settings(max_examples=60, deadline=None)
    @given(intersection_semilattices(), st.sampled_from([[1], [2], [1, 1], [2, 1]]))
    def test_pairs_checked_counts_every_triple(self, L, blocks):
        # identity maps on one shape: valid on every semilattice, and the
        # shape picks the route (a block of side 2 takes the generator one)
        shape = fd.AlgebraShape(blocks)
        spec = gr.GradedSpec.from_pi(L, [shape] * L.n, np.kron(L.le, np.eye(shape.dim)))
        want = sum(
            L.leq(m, L.meet[i, j])
            for i, j, m in itertools.product(range(L.n), repeat=3)
        )
        assert gr.validate_spec(spec).pairs_checked == want


# ------------------------------------- axiom (b) against the reference loop

def hom_bound(spec):
    """The bound on every phi's basis-pair residual that validate_spec
    hands to the axiom (b) bound."""
    return max(fd.validate_starhom(h).mult_bound for h in spec.phi.values())


def block_hom(source, target, parts):
    """The *-hom that puts, down the diagonal of target block t, one copy
    of each source block listed in parts[t], and zeros after them."""
    images = []
    for s, p, q in source.basis_triples():
        mats = [np.zeros((d, d), dtype=complex) for d in target.blocks]
        for t, blocks in enumerate(parts):
            off = 0
            for blk in blocks:
                if blk == s:
                    mats[t][off + p, off + q] = 1.0
                off += source.blocks[blk]
        images.append(fd.AlgElement(target, mats))
    return fd.StarHom.from_images(source, target, images)


def identity_chain(n, shape):
    phi = {pair: fd.identity_hom(shape) for pair in sl.chain(n).comparable_pairs()}
    return gr.GradedSpec(sl.chain(n), [shape] * n, phi)


def mixed_sides_chain():
    """chain(3) with components [3, 1] < [2, 1] < [1], unital maps."""
    c0, c1, c2 = (fd.AlgebraShape(b) for b in ([3, 1], [2, 1], [1]))
    p12 = block_hom(c2, c1, [[0, 0], [0]])
    p01 = block_hom(c1, c0, [[0, 1], [1]])
    return gr.GradedSpec(
        sl.chain(3), [c0, c1, c2],
        {(1, 2): p12, (0, 1): p01, (0, 2): fd.compose(p01, p12)},
    )


def zero_top_quotient():
    """Quotient of chain(3) over [1, 1] < [1, 1] < [1] by the first block
    of every index: the top component is AlgebraShape(()) and both
    indices below it keep one block."""
    c01, c2 = fd.AlgebraShape([1, 1]), SCALAR
    p12 = block_hom(c2, c01, [[0], []])
    p01 = fd.identity_hom(c01)
    spec = gr.GradedSpec(
        sl.chain(3), [c01, c01, c2],
        {(1, 2): p12, (0, 1): p01, (0, 2): fd.compose(p01, p12)},
    )
    quotient = gr.verify_ideal_gradation(spec, {0: [0], 1: [0], 2: [0]}).quotient
    assert quotient.components[2] == fd.AlgebraShape(())
    return quotient


def bottomed_antichain(k):
    """0 < 1 < the k incomparable atoms 2 .. k+1, whose pairwise meets are
    1."""
    n = k + 2
    table = [[i if i == j else min(i, j) if min(i, j) <= 1 else 1
              for j in range(n)] for i in range(n)]
    return sl.Semilattice(table)


def mixed_groups_antichain(doubled=()):
    """bottomed_antichain(4) over [2, 2] < M_2 < atoms C, M_2, M_2, C.

    The meet 1 gathers pairs of four dimension groups. phi_{0,1} is the
    corner x -> x + 0, every map from an atom to 1 is unital, and
    phi_{0,a} = phi_{0,1} phi_{1,a} plus, for a in doubled, the same map
    into the second block. Axiom (b) then fails exactly at the pairs of
    distinct atoms that are both doubled."""
    c0, c1 = fd.AlgebraShape([2, 2]), M2
    atoms = [SCALAR, M2, M2, SCALAR]
    corner = block_hom(c1, c0, [[0], []])
    phi = {(0, 1): corner}
    for a, shape in enumerate(atoms, start=2):
        up = unital_embedding(M2) if shape == SCALAR else fd.identity_hom(M2)
        phi[(1, a)] = up
        down = fd.compose(corner, up)
        if a in doubled:
            down = fd.compose(block_hom(c1, c0, [[0], [0]]), up)
        phi[(0, a)] = down
    return gr.GradedSpec(bottomed_antichain(4), [c0, c1] + atoms, phi)


ORACLE_SPECS = {
    "m2-chain5": identity_chain(5, M2),
    "block-chain5": identity_chain(5, fd.AlgebraShape([2, 1])),
    "mixed-diamond": mixed_diamond_spec(),
    "mixed-sides-chain3": mixed_sides_chain(),
    "zero-top-quotient": zero_top_quotient(),
    "mixed-groups-antichain": mixed_groups_antichain(),
}

# specs that fail axiom (b) before any perturbation
FAILING_SPECS = {
    # at (2, 4) and (4, 2) only, in the dimension groups (1, 4) and (4, 1)
    "mixed-groups-doubled": mixed_groups_antichain(doubled=(2, 4)),
}


def composed_chain(components, covers):
    """The chain 0 < 1 < ... with the given maps phi_{t,t+1}, covers[t],
    and every longer map their composition."""
    phi = {}
    for i, j in sl.chain(len(components)).comparable_pairs():
        if i < j:
            h = covers[j - 1]
            for t in range(j - 2, i - 1, -1):
                h = fd.compose(covers[t], h)
            phi[(i, j)] = h
    return gr.GradedSpec(sl.chain(len(components)), components, phi)


def doubling_chain():
    """M_8 > M_4 > M_2 > C (index 0 largest), x -> diag(x, x)."""
    shapes = [fd.AlgebraShape([d]) for d in (8, 4, 2, 1)]
    return composed_chain(shapes, [block_hom(b, a, [[0, 0]]) for a, b in zip(shapes, shapes[1:])])


def multi_block_chain(parts):
    """[2, 2, 1] > [2, 1] > [1] with c -> (c 1, c) and (a, b) -> the blocks
    of [2, 2, 1] that parts names."""
    shapes = [fd.AlgebraShape(b) for b in ([2, 2, 1], [2, 1], [1])]
    return composed_chain(
        shapes, [block_hom(shapes[1], shapes[0], parts), block_hom(shapes[2], shapes[1], [[0, 0], [0]])]
    )


def corner_chain():
    """M_3 > M_2 > C with the unital c -> c 1 into M_2 and the corner
    x -> diag(x, 0) of M_2 in M_3."""
    m3 = fd.AlgebraShape([3])
    return composed_chain([m3, M2, SCALAR], [block_hom(M2, m3, [[0]]), unital_embedding(M2)])


def unitary(rng, d):
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return u


def moved(spec, rng):
    """spec carried along x -> u x u* in every block, u a random unitary
    per block: an isomorphic spec with the zero blocks of pi kept exactly
    and no other entry 0/1."""
    blocks = [d for c in spec.components for d in c.blocks]
    ad = np.zeros((spec.total_dim, spec.total_dim), dtype=complex)
    off = 0
    for d in blocks:
        u = unitary(rng, d)
        ad[off : off + d * d, off : off + d * d] = np.kron(u, u.conj())
        off += d * d
    return gr.GradedSpec.from_pi(spec.L, spec.components, ad @ spec.pi @ ad.conj().T)


def rotated(spec, pair, rng):
    """A verdict-free copy of spec with phi at pair followed by x -> u x u*,
    u a random unitary of the one block of its target: still a *-hom, and
    no longer compatible."""
    i, j = pair
    (d,) = spec.components[i].blocks
    u = unitary(rng, d)
    pi = spec.pi.copy()
    pi[spec.span(i), spec.span(j)] = np.kron(u, u.conj()) @ pi[spec.span(i), spec.span(j)]
    return gr.GradedSpec.from_pi(spec.L, spec.components, pi)


# specs whose maps are not all unital: P_{m,k} != 1 twists (1), and (2)
# is not trivial
NON_UNITAL_SPECS = {
    # (a, b) -> (a, 0, b): the middle block of the bottom is dropped
    "dropped-block-chain": multi_block_chain([[0], [], [1]]),
    "corner-chain": corner_chain(),
}

# conjugation angles: far below tolerance, just past it, large; None
# replaces the map by the zero *-hom
PERTURBATIONS = (0.0, 1e-12, 1e-6, 0.7, None)


def conjugated(h, theta, rng):
    """Ad(u) o h for u = exp(i theta H) blockwise, H a random Hermitian."""
    target = h.target
    us = []
    for d in target.blocks:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w, v = np.linalg.eigh(g + g.conj().T)
        us.append((v * np.exp(1j * theta * w)) @ v.conj().T)
    images = []
    for a in range(target.dim):
        e = fd.basis_element(target, a)
        images.append(
            fd.AlgElement(target, [u @ m @ u.conj().T for u, m in zip(us, e.mats)])
        )
    return fd.compose(fd.StarHom.from_images(target, target, images), h)


def perturbed(spec, rng, theta_of):
    """spec with each off-diagonal map (t, j) conjugated by the angle
    theta_of(t, j), kept at 0 and replaced by the zero *-hom at None."""
    phi = {}
    for (t, j), h in sorted(spec.phi.items()):
        theta = theta_of(t, j) if t != j else 0.0
        if theta is None:
            phi[(t, j)] = fd.zero_hom(h.source, h.target)
        elif theta:
            phi[(t, j)] = conjugated(h, theta, rng)
        else:
            phi[(t, j)] = h
    return gr.GradedSpec(spec.L, spec.components, phi)


@st.composite
def perturbed_specs(draw):
    specs = {**ORACLE_SPECS, **FAILING_SPECS}
    spec = specs[draw(st.sampled_from(sorted(specs)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return perturbed(spec, rng, lambda t, j: draw(st.sampled_from(PERTURBATIONS)))


# A perturbed spec on which, by the largest-entry rule, the two routes of
# axiom (b) named different pairs at (i=2, j=3, m=1): (2:E0[0,0], 3:E0[0,1])
# and (2:E0[1,0], 3:E0[0,1]) tie at residual 1.584 up to rounding.
ROUNDING_TIE = perturbed(
    ORACLE_SPECS["block-chain5"],
    np.random.default_rng(57680),
    lambda t, j: {
        (0, 1): None, (0, 2): None, (0, 3): None, (1, 4): None,
        (1, 2): 1e-12, (1, 3): 1e-12, (2, 3): 0.7,
    }.get((t, j), 0.0),
)


# perturbation sizes around AXIOM_TOL = 1e-9
STRADDLE = st.floats(-11.0, -7.0).map(lambda e: 10.0**e)


@st.composite
def straddling_specs(draw):
    """An oracle, failing or non-unital spec whose off-diagonal maps are
    conjugated, which keeps them *-homs and moves axiom (b), or get a
    random additive error, which moves the *-hom check, by sizes
    straddling AXIOM_TOL."""
    specs = {**ORACLE_SPECS, **FAILING_SPECS, **NON_UNITAL_SPECS}
    spec = specs[draw(st.sampled_from(sorted(specs)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = {}
    for (t, j), h in sorted(spec.phi.items()):
        kind = draw(st.sampled_from(["keep", "conjugate", "add"])) if t != j else "keep"
        if kind == "conjugate":
            h = conjugated(h, draw(STRADDLE), rng)
        elif kind == "add":
            noise = rng.standard_normal(h.matrix.shape) + 1j * rng.standard_normal(h.matrix.shape)
            noise *= draw(STRADDLE) / max(np.linalg.norm(noise), 1e-300)
            h = fd.StarHom(h.source, h.target, h.matrix + noise)
        phi[(t, j)] = h
    return gr.GradedSpec(spec.L, spec.components, phi)


class TestAxiomBAgainstReference:
    def test_oracle_specs_pass(self):
        for name, spec in ORACLE_SPECS.items():
            report = gr.validate_spec(spec)
            assert report.axiom_b_residual == 0.0, name
            assert report.pairs_checked == axiom_b_reference(spec)[1], name

    def test_tied_defect_names_the_first_pair(self):
        # phi_{0,2} = Ad(u) for a rotation u by one radian: at (1, 2, 0)
        # the pairs (E0[0,0], E0[0,0]) and (E0[0,0], E0[1,0]) both have
        # residual sin^2, once computed as 1 - cos^2
        c, s = np.cos(1.0), np.sin(1.0)
        u = np.array([[c, -s], [s, c]])
        images = [
            fd.AlgElement(M2, [u @ fd.basis_element(M2, a).mats[0] @ u.T])
            for a in range(M2.dim)
        ]
        ident = fd.identity_hom(M2)
        spec = gr.GradedSpec(
            sl.chain(3), [M2] * 3,
            {(0, 1): ident, (1, 2): ident, (0, 2): fd.StarHom.from_images(M2, M2, images)},
        )
        with pytest.raises(gr.AxiomBViolation) as want:
            axiom_b_reference(spec)
        with pytest.raises(gr.AxiomBViolation) as got:
            gr.validate_spec(spec)
        assert str(got.value) == str(want.value)
        assert got.value.where == ("1", "2", "0", "1:E0[0,0]", "2:E0[0,0]")
        assert got.value.residual == pytest.approx(s * s, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(perturbed_specs())
    @example(ROUNDING_TIE)
    def test_matches_reference(self, spec):
        try:
            want = axiom_b_reference(spec)
        except gr.AxiomBViolation as exc:
            with pytest.raises(gr.AxiomBViolation) as got:
                gr.validate_spec(spec)
            assert str(got.value) == str(exc)
            return
        report = gr.validate_spec(spec)
        assert report.pairs_checked == want[1]
        assert want[0] <= spec.validated_bounds.axiom_b
        # the matrix-unit generator bound, kept as an oracle, holds too
        fast = axiom_b_reference(spec, generators=True)[0]
        k_eps, k_delta, _ = axiom_b_kappas(spec.components)
        assert want[0] <= k_eps * fast + k_delta * hom_bound(spec)
        if gr.components_commutative(spec):
            assert report.axiom_b_residual == pytest.approx(want[0], abs=1e-12)
            return
        # the composition residual, and the basis-pair maximum of the
        # pairs it could not certify
        comp = composition_reference(spec)
        assert comp - 1e-12 <= report.axiom_b_residual <= max(comp, want[0]) + 1e-12

    def test_first_offender_across_dimension_groups(self):
        # Groups at meet 1 in the order of their first pair: (1, 1) of
        # dims (4, 4) fails first at (3, 4), (1, 2) of dims (4, 1) at
        # (3, 2), (2, 1) of dims (1, 4) at (2, 3), the row-major first.
        # Then (2, 5) of dims (1, 1) comes after it and is not needed.
        spec = mixed_groups_antichain(doubled=(2, 3, 4))
        with pytest.raises(gr.AxiomBViolation) as want:
            axiom_b_reference(spec)
        with pytest.raises(gr.AxiomBViolation) as got:
            gr.validate_spec(spec)
        assert str(got.value) == str(want.value) == (
            "compatibility fails at indices (i=2, j=3, m=0), "
            "basis pair (2:E0[0,0], 3:E0[0,0]), residual 1.000e+00"
        )

    @settings(max_examples=80, deadline=None)
    @given(straddling_specs())
    def test_verdicts_match_basis_pair_routes(self, spec):
        try:
            want = validate_spec_reference(spec)
        except ValidationFailure as exc:
            with pytest.raises(type(exc)) as got:
                gr.validate_spec(spec)
            assert str(got.value) == str(exc)
            return
        assert gr.validate_spec(spec).pairs_checked == want[1]

    def test_products_formed_on_m5_chain(self, monkeypatch):
        # chain(3) of M_5 with identity maps. *-homs: one stack of the 6
        # maps, 2 * 25 relation products each (one block: no block-unit
        # products). Axiom (b), by composition, every k at once: the 50
        # columns of A_1 and A_2 and the units of the 3 indices, over the
        # rows of indices 0 and 1, each times P_1 and P_2; no pair of a
        # chain needs Q_i (1 - P) Q_j. The basis-pair routes form
        # 6 * 625 + 4 * 625 = 6250.
        count = []
        real = fd.pair_products

        def counting(shape, g, h):
            out = real(shape, g, h)
            count.append(out[..., 0].size)
            return out

        monkeypatch.setattr(fd, "pair_products", counting)
        gr.validate_spec(identity_chain(3, fd.AlgebraShape([5])))
        assert sum(count) == 6 * 2 * 25 + (50 + 3) * 2

    def test_one_pair_product_per_group(self, monkeypatch):
        # all-scalar chain(12): 11 meets with something below, one
        # dimension group each, plus one stacked *-hom check
        calls = []
        real = fd.pair_products
        monkeypatch.setattr(fd, "pair_products", lambda *a: calls.append(1) or real(*a))
        gr.validate_spec(all_scalar_spec(sl.chain(12)))
        assert len(calls) <= 12


# --------------------------------------------- the composition route

@functools.cache
def composition_pool():
    """Specs with a block of side at least 2, no 0/1 entries but the zero
    blocks: matrix, doubling and multi-block chains, the non-unital specs,
    a failing spec and the crossed products of the coset specs."""
    rng = np.random.default_rng(33)
    pool = {
        "m3-chain3": moved(identity_chain(3, fd.AlgebraShape([3])), rng),
        "m5-chain3": moved(identity_chain(3, fd.AlgebraShape([5])), rng),
        "doubling": moved(doubling_chain(), rng),
        "multi-block": moved(multi_block_chain([[0], [0], [1]]), rng),
        "mixed-groups-doubled": moved(FAILING_SPECS["mixed-groups-doubled"], rng),
    }
    pool.update({name: moved(spec, rng) for name, spec in NON_UNITAL_SPECS.items()})
    for name, family in (("z4", wb.coset_z4_family()), ("s3", wb.coset_s3_family())):
        pool[f"crossed-{name}"] = pr.crossed_product(wb.build_coset_spec(*family)[1])
    return pool


@st.composite
def noisy_copies(draw):
    """A verdict-free copy of a spec of composition_pool with complex
    noise of one size, from 1e-16 to 1e-11, on every comparable block."""
    pool = composition_pool()
    spec = pool[draw(st.sampled_from(sorted(pool)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.floats(-16.0, -11.0))
    owner = gr._owners(spec.components)
    noise = rng.standard_normal(spec.pi.shape) + 1j * rng.standard_normal(spec.pi.shape)
    noise *= size * spec.L.le[np.ix_(owner, owner)]
    return gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi + noise)


def rotation_case(spec, seed):
    """(base, rotated): spec moved by unitaries, and that copy with
    phi_{0,2} rotated, from one seeded generator."""
    rng = np.random.default_rng(seed)
    base = moved(spec, rng)
    return base, rotated(base, (0, 2), rng)


# phi_{0,2} rotated on chain(3) of M_5 and on the doubling chain, with the
# message naming the first offender, as the matrix-unit generator route
# named it
ROTATED = {
    "m5-chain3": (
        *rotation_case(identity_chain(3, fd.AlgebraShape([5])), 2026),
        "compatibility fails at indices (i=1, j=2, m=0), "
        "basis pair (1:E0[2,3], 2:E0[0,3]), residual 5.252e-01",
    ),
    "doubling": (
        *rotation_case(doubling_chain(), 2027),
        "compatibility fails at indices (i=1, j=2, m=0), "
        "basis pair (1:E0[3,3], 2:E0[0,1]), residual 6.208e-01",
    ),
}


class TestCompositionRoute:
    @settings(max_examples=60, deadline=None)
    @given(noisy_copies())
    def test_noisy_copies_are_sound(self, spec):
        # verdicts and messages are those of the basis-pair routes, and no
        # basis-pair residual exceeds the recorded bound
        try:
            want = validate_spec_reference(spec)
        except ValidationFailure as exc:
            with pytest.raises(type(exc)) as got:
                gr.validate_spec(spec)
            assert str(got.value) == str(exc)
            return
        assert gr.validate_spec(spec).pairs_checked == want[1]
        assert want[0] <= spec.validated_bounds.axiom_b

    @pytest.mark.parametrize("name", sorted(ROTATED))
    def test_rotated_map_names_the_first_offender_from_one_pair(self, name, monkeypatch):
        # the certified pairs cannot fail, so the basis-pair residuals of
        # the first uncertified pair, (1, 2), name the offender: against
        # the unrotated spec, whose *-hom and composition checks form the
        # same products, one pair's dim A_1 * dim A_2 more
        base, spec, message = ROTATED[name]
        with pytest.raises(gr.AxiomBViolation) as want:
            axiom_b_reference(spec)
        assert str(want.value) == message
        count = []
        real = fd.pair_products

        def counting(shape, g, h):
            out = real(shape, g, h)
            count.append(out[..., 0].size)
            return out

        monkeypatch.setattr(fd, "pair_products", counting)
        gr.validate_spec(base)
        valid = sum(count)
        count.clear()
        with pytest.raises(gr.AxiomBViolation) as got:
            gr.validate_spec(spec)
        assert str(got.value) == message
        assert sum(count) == valid + spec.components[1].dim * spec.components[2].dim

    def test_one_k_per_step_measures_the_same(self, monkeypatch):
        # a spec of total dimension above 512 takes one k per step; the
        # rows and columns of a step are masked to each k's own, so only
        # the rounding of the measured residuals, about 1e-15 here, moves
        pool = composition_pool()

        def measured(spec):
            bound, residual, pair_bounds = gr._composition_bounds(spec, 1e-13, 1e-16)
            return bound, residual, pair_bounds()[0]

        whole = {name: measured(spec) for name, spec in pool.items()}
        monkeypatch.setattr(gr, "_COMPOSITION_STEP", 1)
        for name, spec in pool.items():
            got = measured(spec)
            assert got[0] == pytest.approx(whole[name][0], rel=1e-3), name
            assert got[1] == pytest.approx(whole[name][1], abs=1e-14), name
            assert np.allclose(got[2], whole[name][2], rtol=1e-3, atol=0), name

    def test_zero_one_pi_certifies_with_zero_bounds(self):
        # a 0/1 pi makes every product exact, so nothing is allowed for
        # rounding: the builders' verdict of zero bounds is what
        # validate_spec records
        for name, spec in {**ORACLE_SPECS, **NON_UNITAL_SPECS}.items():
            copy = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi)
            gr.validate_spec(copy)
            assert copy.validated_bounds == (0.0, 0.0, 0.0, 0.0), name


# ------------------------------------------------- the exact 0/1 route

def pi_with(spec, *edits):
    """A verdict-free copy of spec whose pi has each (rows, cols, value)
    edit written into it."""
    pi = spec.pi.copy()
    for rows, cols, value in edits:
        pi[rows, cols] = value
    return gr.GradedSpec.from_pi(spec.L, spec.components, pi)


@st.composite
def zero_one_all_scalar(draw):
    """An all-scalar spec whose maps are identities or 0: the order
    matrix of a random semilattice with some comparable pairs zeroed."""
    L = draw(intersection_semilattices())
    ii, jj = np.nonzero(L.le & ~np.eye(L.n, dtype=bool))
    zero = np.array(draw(st.lists(st.booleans(), min_size=ii.size, max_size=ii.size)), dtype=bool)
    pi = L.le.astype(float)
    pi[ii[zero], jj[zero]] = 0.0
    return gr.GradedSpec.from_pi(L, [SCALAR] * L.n, pi)


@st.composite
def zero_one_pullbacks(draw):
    """Coset-style functions on {0, 1}^3 modulo the coordinates in s, for
    s in a random family of subsets of {0, 1, 2} closed under
    intersection, ordered by inclusion, with pullbacks as maps: a valid
    commutative spec whose pi is 0/1, with dim A_s = 2^(3 - |s|). Each
    map of a pair i < j is then kept, replaced by a random pullback (each
    coordinate of A_i sent to a random one of A_j) or shrunk (random rows
    zeroed), which can break axiom (b)."""
    seeds = draw(st.lists(st.frozensets(st.integers(0, 2)), min_size=1, max_size=5))
    family = set(seeds)
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    L = sl.Semilattice([[sets.index(a & b) for b in sets] for a in sets])
    points = np.array(list(itertools.product((0, 1), repeat=3)))
    # the class of each point modulo s: its coordinates off s, as a number
    label = [
        points[:, [c for c in range(3) if c not in s]] @ (1 << np.arange(3 - len(s)))
        for s in sets
    ]
    comps = [fd.AlgebraShape([1] * 2 ** (3 - len(s))) for s in sets]
    off = np.cumsum([0] + [c.dim for c in comps])
    pi = np.zeros((off[-1], off[-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for i, j in L.comparable_pairs():
        block = np.zeros((comps[i].dim, comps[j].dim))
        block[label[i], label[j]] = 1.0
        kind = draw(st.sampled_from(["keep", "keep", "pullback", "shrink"])) if i != j else "keep"
        if kind == "pullback":
            block[:] = 0.0
            block[np.arange(comps[i].dim), rng.integers(comps[j].dim, size=comps[i].dim)] = 1.0
        elif kind == "shrink":
            block[rng.random(comps[i].dim) < 0.5] = 0.0
        pi[off[i] : off[i + 1], off[j] : off[j + 1]] = block
    return gr.GradedSpec.from_pi(L, comps, pi)


def outcome(spec, tol=gr.AXIOM_TOL):
    """validate_spec on a verdict-free copy of spec: the report with the
    verdict it records, or the failure's type and message."""
    spec = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi)
    try:
        report = gr.validate_spec(spec, tol)
    except ValidationFailure as exc:
        return type(exc), str(exc)
    return report, spec.validated_tol, spec.validated_bounds


def basis_pair_outcome(spec, tol=gr.AXIOM_TOL):
    """outcome with the exact route switched off."""
    with mock.patch.object(gr, "_zero_one_table", lambda spec: None):
        return outcome(spec, tol)


# the benchmark's reject shapes: chain(12) with the map (0, 11) zeroed,
# and coset-s3 with phi_{0,3} shrunk onto half its cosets
CHAIN12_ZERO = pi_with(all_scalar_spec(sl.chain(12)), (0, 11, 0.0))
S3_SHRUNK = pi_with(wb.build_coset_spec(*wb.coset_s3_family())[0], (slice(0, 3), 11, 0.0))
# the chain 0 < 1 < 2 < 3 with dims 8, 4, 2, 1: axiom (b) fails for the
# pair (1, 3) at the first coordinate of A_1 and for (1, 2) at its last
STEPPED = gr.GradedSpec.from_pi(
    sl.chain(4),
    [fd.AlgebraShape([1] * d) for d in (8, 4, 2, 1)],
    np.array(
        [
            [float(c) for c in row]
            for row in (
                "100000001000101",
                "010000001000101",
                "001000000100101",
                "000100000100101",
                "000010000010011",
                "000001000010011",
                "000000100001001",
                "000000010001001",
                "000000001000100",
                "000000000100101",
                "000000000010010",
                "000000000001011",
                "000000000000101",
                "000000000000011",
                "000000000000001",
            )
        ]
    ),
)


class TestZeroOneRoute:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(zero_one_all_scalar(), zero_one_pullbacks()))
    @example(CHAIN12_ZERO)
    @example(S3_SHRUNK)
    @example(STEPPED)
    def test_matches_reference(self, spec):
        # every map is a *-hom with identity diagonals: the route applies
        assert gr._zero_one_table(spec) is not None
        got = outcome(spec)
        assert got == basis_pair_outcome(spec)
        try:
            want = validate_spec_reference(spec)
        except ValidationFailure as exc:
            assert got == (type(exc), str(exc))
            return
        report, tol, bounds = got
        assert report == gr.SpecValidationReport(0.0, 0.0, 0.0, 0.0, want[1])
        assert (tol, bounds) == (gr.AXIOM_TOL, gr.SpecBounds(0.0, 0.0, 0.0, 0.0))

    def test_reject_shapes_fail_axiom_b(self):
        assert outcome(CHAIN12_ZERO) == (
            gr.AxiomBViolation,
            "compatibility fails at indices (i=1, j=11, m=0), "
            "basis pair (1:E0[0,0], 11:E0[0,0]), residual 1.000e+00",
        )
        assert outcome(S3_SHRUNK)[0] is gr.AxiomBViolation

    def test_one_pair_decides_a_failure(self, monkeypatch):
        # the exact route accepts with no pair product, and names a
        # failure from the residuals of the failing pair alone
        calls = []
        real = fd.pair_products
        monkeypatch.setattr(fd, "pair_products", lambda *a: calls.append(a[1].shape) or real(*a))
        gr.validate_spec(all_scalar_spec(sl.chain(12)))
        assert calls == []
        with pytest.raises(gr.AxiomBViolation):
            gr.validate_spec(pi_with(CHAIN12_ZERO))
        # the pair (1, 11): one left factor over the rows of 0 and 1
        assert calls == [(1, 2, 1)]

    @pytest.mark.parametrize("tol", [1.0, 2.0, np.inf])
    def test_failure_within_tol_passes_on_the_basis_pairs(self, tol):
        # every residual of a 0/1 spec is 0 or 1: at tol >= 1 axiom (b)
        # holds within tol, and the basis-pair route reports residual 1
        got = outcome(CHAIN12_ZERO, tol)
        assert got == basis_pair_outcome(CHAIN12_ZERO, tol)
        assert got[0].axiom_b_residual == 1.0

    @pytest.mark.parametrize(
        "spec, tol",
        [
            # one 0 entry moved to 1e-300: not exact, so the basis pairs
            # decide; the unshrunk coset spec passes with residual 1e-300
            (pi_with(S3_SHRUNK, (0, 11, 1e-300)), gr.AXIOM_TOL),
            (pi_with(wb.build_coset_spec(*wb.coset_s3_family())[0], (0, 7, 1e-300)), gr.AXIOM_TOL),
            (all_scalar_spec(sl.chain(5)), np.nan),
            (all_scalar_spec(sl.chain(5)), -1.0),
            (CHAIN12_ZERO, np.nan),
        ],
    )
    def test_other_specs_and_tolerances_take_the_basis_pairs(self, spec, tol):
        with mock.patch.object(gr, "_zero_one_failure", side_effect=AssertionError):
            got = outcome(spec, tol)
        assert got == basis_pair_outcome(spec, tol)

    def test_scale(self):
        # a verdict-free all-scalar chain(128), valid and with its longest
        # map zeroed
        L = sl.chain(128)
        spec = gr.GradedSpec.from_pi(L, [SCALAR] * L.n, L.le)
        assert outcome(spec) == basis_pair_outcome(spec)
        zeroed = pi_with(spec, (0, 127, 0.0))
        assert outcome(zeroed) == basis_pair_outcome(zeroed)
        assert outcome(zeroed)[0] is gr.AxiomBViolation

    def test_no_cubic_array_at_chain_500(self):
        # one array of D^3 bits would be 500^3 / 8 bytes, 15 MiB
        L = sl.chain(500)
        spec = gr.GradedSpec.from_pi(L, [SCALAR] * L.n, L.le)
        tracemalloc.start()
        try:
            report = gr.validate_spec(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.axiom_b_residual == 0.0
        assert peak < 24 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(zero_one_all_scalar(), zero_one_pullbacks()))
    @example(CHAIN12_ZERO)
    @example(S3_SHRUNK)
    @example(STEPPED)
    def test_steps_of_one_coordinate_find_the_same_pair(self, spec):
        # with a step per coordinate x the first failing pair is found
        # across steps, as in the single step these small specs take
        table = gr._zero_one_table(spec)
        want = gr._zero_one_failure(spec, table)
        with mock.patch.object(gr, "_BITSET_STEP_WORDS", 1):
            assert gr._zero_one_failure(spec, table) == want


# ------------------------------------------------------------- q family

def assert_q_matches_per_pair(spec, name=""):
    """Every stacked q tensor equals its own pair_products(A_k, phi_ki,
    phi_kj), k = i ^ j, entry for entry."""
    fam = gr.q_family_from_spec(spec)
    assert set(fam.tensors) == {(i, j) for i in range(spec.L.n) for j in range(spec.L.n)}
    for (i, j), t in fam.tensors.items():
        k = spec.L.meet[i, j]
        want = fd.pair_products(
            spec.components[k], spec.phi[(k, i)].matrix, spec.phi[(k, j)].matrix
        )
        np.testing.assert_array_equal(t, want.transpose(2, 0, 1), err_msg=f"{name} {(i, j)}")


# additive noise on a q tensor: none, far below AXIOM_TOL, far above it
Q_NOISE = (0.0, 1e-12, 1e-6, 0.25)


@st.composite
def noisy_q_families(draw):
    """The q family of a corpus, oracle or failing spec, the spec's maps
    perturbed as perturbed_specs does, with complex noise of a size from
    Q_NOISE added to each tensor, or in half the draws only the sizes
    below AXIOM_TOL."""
    specs = {**standard_corpus(), **ORACLE_SPECS, **FAILING_SPECS}
    spec = specs[draw(st.sampled_from(sorted(specs)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        spec = perturbed(spec, rng, lambda t, j: draw(st.sampled_from(PERTURBATIONS)))
    q = gr.q_family_from_spec(spec)
    sizes = draw(st.sampled_from([Q_NOISE[:2], Q_NOISE]))
    for pair in sorted(q.tensors):
        size = draw(st.sampled_from(sizes))
        if size:
            t = q.tensors[pair]
            q.tensors[pair] = t + size * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
    return q


class TestQFamily:
    def test_same_index_is_multiplication(self, rng):
        spec = m2_chain_spec()
        x = fd.random_element(M2, rng)
        y = fd.random_element(M2, rng)
        out = gr.q_from_phi(spec, 0, 0, x, y)
        assert fd.frob_norm(out - fd.mul(x, y)) < 1e-12

    def test_all_scalar_diamond_cross_product(self):
        spec = all_scalar_spec(sl.diamond())
        a, b = spec.L.index_of("a"), spec.L.index_of("b")
        one = fd.unit(SCALAR)
        out = gr.q_from_phi(spec, a, b, one, one)
        assert out.shape == SCALAR
        assert abs(scalar_of(out) - 1.0) < 1e-12

    def test_scalar_times_matrix(self, rng):
        spec = m2_chain_spec()
        lam = fd.from_vector(SCALAR, np.array([1.5 - 0.5j]))
        m = fd.random_element(M2, rng)
        out = gr.q_from_phi(spec, 1, 0, lam, m)
        assert fd.frob_norm(out - fd.scale(1.5 - 0.5j, m)) < 1e-12

    def test_shape_mismatch(self):
        spec = m2_chain_spec()
        with pytest.raises(fd.ShapeMismatch):
            gr.q_from_phi(spec, 0, 0, fd.unit(SCALAR), fd.unit(M2))

    def test_tensors_match_per_pair_products(self, corpus):
        for name, spec in {**corpus, **ORACLE_SPECS, **FAILING_SPECS}.items():
            assert_q_matches_per_pair(spec, name)

    @settings(max_examples=30, deadline=None)
    @given(perturbed_specs())
    def test_tensors_match_per_pair_products_perturbed(self, spec):
        assert_q_matches_per_pair(spec)

    def test_one_pair_product_per_meet_on_chain(self, monkeypatch):
        calls = []
        real = fd.pair_products
        monkeypatch.setattr(fd, "pair_products", lambda *a: calls.append(1) or real(*a))
        gr.q_family_from_spec(all_scalar_spec(sl.chain(12)))
        assert len(calls) <= 12

    def test_family_axioms_hold_on_corpus(self, corpus):
        for name, spec in corpus.items():
            fam = gr.q_family_from_spec(spec)
            assert fam.validate(), name

    def test_broken_family_rejected(self):
        spec = all_scalar_spec(sl.diamond())
        fam = gr.q_family_from_spec(spec)
        a, b = spec.L.index_of("a"), spec.L.index_of("b")
        fam.tensors[(a, b)] = fam.tensors[(a, b)] + 0.25
        with pytest.raises(gr.QAxiomViolation):
            fam.validate()

    def test_phi_recovery_round_trip(self, corpus):
        for name in ("m2-chain", "all-scalar-diamond", "mixed-diamond"):
            spec = corpus[name]
            fam = gr.q_family_from_spec(spec)
            recovered = gr.phi_from_q(fam)
            assert set(recovered) == set(spec.phi), name
            for pair, h in spec.phi.items():
                delta = np.abs(recovered[pair].matrix - h.matrix)
                assert (delta.max() if delta.size else 0.0) <= 1e-10, (name, pair)

    def test_spec_from_q_validates(self, corpus):
        spec = corpus["block-chain"]
        rebuilt = gr.spec_from_q(gr.q_family_from_spec(spec))
        assert rebuilt.components == spec.components
        gr.validate_spec(rebuilt)

    def test_spec_from_q_validates_once(self, corpus, monkeypatch):
        calls = []
        real = gr.validate_spec

        def validate_spec(spec, tol=gr.AXIOM_TOL):
            calls.append(spec)
            return real(spec, tol)

        monkeypatch.setattr(gr, "validate_spec", validate_spec)
        rebuilt = gr.spec_from_q(gr.q_family_from_spec(corpus["mixed-diamond"]))
        assert calls == [rebuilt]
        assert rebuilt.validated_tol == gr.AXIOM_TOL
        assert np.array_equal(rebuilt.pi, corpus["mixed-diamond"].pi)

    @settings(max_examples=40, deadline=None)
    @given(noisy_q_families())
    def test_same_decision_as_the_axiom_loops(self, q):
        try:
            q_axioms_reference(q)
        except gr.QAxiomViolation:
            with pytest.raises(gr.QAxiomViolation):
                q.validate()
            return
        assert q.validate()


# ----------------------------------------------------------- arithmetic

class TestArithmetic:
    def test_all_scalar_units_multiply_to_meet(self, corpus):
        for name, spec in corpus.items():
            if not name.startswith("all-scalar"):
                continue
            for i in range(spec.L.n):
                for j in range(spec.L.n):
                    prod = gr.gmul(spec.component_unit(i), spec.component_unit(j))
                    want = spec.component_unit(spec.L.meet[i, j])
                    assert graded_close(prod, want), (name, i, j)

    def test_product_involution(self, corpus, rng):
        for name in ("m2-chain", "mixed-diamond", "block-chain"):
            spec = corpus[name]
            x = spec.random_element(rng)
            y = spec.random_element(rng)
            lhs = gr.gadjoint(gr.gmul(x, y))
            rhs = gr.gmul(gr.gadjoint(y), gr.gadjoint(x))
            assert graded_close(lhs, rhs), name

    def test_associativity_random(self, corpus, rng):
        for name in ("mixed-diamond", "all-scalar-chain4"):
            spec = corpus[name]
            x, y, z = (spec.random_element(rng) for _ in range(3))
            lhs = gr.gmul(gr.gmul(x, y), z)
            rhs = gr.gmul(x, gr.gmul(y, z))
            assert graded_close(lhs, rhs, tol=1e-9), name

    def test_top_unit_is_total_unit(self, corpus, rng):
        # when the top exists and maps down unitally, its unit is the unit
        for name in ("m2-chain", "all-scalar-diamond", "block-chain"):
            spec = corpus[name]
            top = spec.L.top()
            assert top is not None
            u = spec.component_unit(top)
            x = spec.random_element(rng)
            assert graded_close(gr.gmul(u, x), x), name
            assert graded_close(gr.gmul(x, u), x), name

    def test_mixed_spec_elements_rejected(self, corpus):
        x = corpus["m2-chain"].zero_element()
        y = corpus["all-scalar-chain2"].zero_element()
        with pytest.raises(gr.SpecMismatch):
            gr.gmul(x, y)

    def test_vector_round_trip(self, corpus, rng):
        spec = corpus["mixed-diamond"]
        x = spec.random_element(rng)
        back = gr.from_gvector(spec, gr.to_gvector(x))
        assert graded_close(x, back, tol=0.0)

    def test_support(self, corpus):
        spec = corpus["all-scalar-diamond"]
        x = spec.component_unit(1) + spec.component_unit(3)
        assert x.support() == {1, 3}
        assert spec.zero_element().support() == frozenset()

    def test_nan_component_stays_in_products(self, corpus):
        # a NaN component has NaN norm; dropping it from the support would
        # make its products read 0
        spec = corpus["m2-chain"]
        x = spec.zero_element()
        x.comps[0].mats[0][0, 0] = np.nan
        assert x.support() == {0}
        assert np.isnan(gr.to_gvector(gr.gmul(x, spec.component_unit(0)))[0])


# -------------------------------------------------------------- pi_rep

class TestPiRep:
    def test_maximal_support_recovers_component(self, corpus, rng):
        for name, spec in corpus.items():
            x = spec.random_element(rng)
            supp = x.support()
            maximal = [
                m
                for m in supp
                if not any(j != m and spec.L.leq(m, j) for j in supp)
            ]
            assert maximal, name
            for m in maximal:
                got = gr.pi_rep(spec, m, x)
                assert fd.frob_norm(got - x.comps[m]) < 1e-12, name

    def test_incomparable_support_gives_zero(self):
        spec = all_scalar_spec(sl.antichain_with_bottom(3))
        x = spec.component_unit(1)
        assert fd.op_norm(gr.pi_rep(spec, 2, x)) == 0.0

    def test_chain_difference(self):
        spec = all_scalar_spec(sl.chain(2))
        x = spec.component_unit(1) - spec.component_unit(0)
        assert abs(scalar_of(gr.pi_rep(spec, 1, x)) - 1.0) < 1e-12
        assert abs(scalar_of(gr.pi_rep(spec, 0, x))) < 1e-12

    def test_pi_is_homomorphism(self, corpus, rng):
        for name in ("mixed-diamond", "m2-chain", "all-scalar-chain5"):
            spec = corpus[name]
            x = spec.random_element(rng)
            y = spec.random_element(rng)
            for i in range(spec.L.n):
                lhs = gr.pi_rep(spec, i, gr.gmul(x, y))
                rhs = fd.mul(gr.pi_rep(spec, i, x), gr.pi_rep(spec, i, y))
                assert fd.frob_norm(lhs - rhs) < 1e-9, name
                star = gr.pi_rep(spec, i, gr.gadjoint(x))
                assert fd.frob_norm(star - fd.adjoint(gr.pi_rep(spec, i, x))) < 1e-12


# --------------------------------------------------------------- gnorm

def step_norm_oracle(coeffs):
    """For an all-scalar chain, pi_i sums the coefficients at or above i,
    so the norm is the largest absolute tail sum (the sup norm of the
    matching step function)."""
    tails = np.cumsum(coeffs[::-1])[::-1]
    return float(np.abs(tails).max())


class TestGnorm:
    def test_bottom_unit(self, corpus):
        spec = corpus["all-scalar-diamond"]
        assert abs(gr.gnorm(spec, spec.component_unit(0)) - 1.0) < 1e-12

    def test_chain_difference(self):
        spec = all_scalar_spec(sl.chain(2))
        x = spec.component_unit(1) - spec.component_unit(0)
        assert abs(gr.gnorm(spec, x) - 1.0) < 1e-12

    def test_step_function_oracle(self, rng):
        for n in range(2, 9):
            spec = all_scalar_spec(sl.chain(n))
            coeffs = rng.normal(size=n)
            x = spec.zero_element()
            for i, c in enumerate(coeffs):
                x = x + c * spec.component_unit(i)
            assert abs(gr.gnorm(spec, x) - step_norm_oracle(coeffs)) < 1e-12

    def test_cstar_identity_random(self, corpus, rng):
        for name, spec in corpus.items():
            for _ in range(5):
                x = spec.random_element(rng)
                n1 = gr.gnorm(spec, gr.gmul(gr.gadjoint(x), x))
                n2 = gr.gnorm(spec, x) ** 2
                assert abs(n1 - n2) <= 1e-8 * (1.0 + n2), name

    def test_zero_iff_zero(self, corpus, rng):
        for name, spec in corpus.items():
            assert gr.gnorm(spec, spec.zero_element()) == 0.0
            x = spec.random_element(rng)
            assert gr.gnorm(spec, x) > 1e-6, name

    def test_matches_faithful_image_norm(self, corpus, rng):
        for name, spec in corpus.items():
            x = spec.random_element(rng)
            assert gr.gnorm(spec, x) == fd.op_norm(gr.faithful_image(spec, x)), name


# --------------------------------------------------------- the pi matrix

class TestPiMatrix:
    def test_blocks_are_structure_maps(self, corpus):
        for name, spec in corpus.items():
            for t in range(spec.L.n):
                for j in range(spec.L.n):
                    block = spec.pi[spec.span(t), spec.span(j)]
                    if spec.L.leq(t, j):
                        want = spec.phi[(t, j)].matrix
                    else:
                        want = np.zeros_like(block)
                    assert np.array_equal(block, want), (name, t, j)
            assert not spec.pi.flags.writeable, name

    def test_faithful_morphism_total_matrix_is_pi(self, corpus):
        for name, spec in corpus.items():
            total = gr.faithful_morphism(spec).total_matrix()
            assert np.array_equal(total, spec.pi), name


# ----------------------------------------------------- faithful morphism

class TestFaithful:
    def test_zero_maps_to_zero(self, corpus):
        spec = corpus["mixed-diamond"]
        img = gr.faithful_image(spec, spec.zero_element())
        assert fd.op_norm(img) == 0.0

    def test_morphism_validates_and_is_injective(self, corpus):
        for name, spec in corpus.items():
            m = gr.faithful_morphism(spec)
            analysis = gr.analyze_morphism(m)
            assert analysis.injective, name
            assert analysis.total_kernel_dim == 0, name

    def test_image_matches_elementwise(self, corpus, rng):
        spec = corpus["block-chain"]
        m = gr.faithful_morphism(spec)
        x = spec.random_element(rng)
        d = m.apply(x) - gr.faithful_image(spec, x)
        assert fd.frob_norm(d) < 1e-12


# ------------------------------------------------------ finishing split

class TestFinishingSplit:
    def test_diamond_upper_pair(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        M = {L.index_of("a"), L.index_of("1")}
        split = gr.FinishingSplit(spec, M)
        p = split.p
        assert all(
            fd.op_norm(c) == 0.0 for c in p(spec.component_unit(0)).comps
        )
        assert all(
            fd.op_norm(c) == 0.0
            for c in p(spec.component_unit(L.index_of("b"))).comps
        )
        img = p(spec.component_unit(L.index_of("a")))
        new_a = split.remap[L.index_of("a")]
        assert abs(scalar_of(img.comps[new_a]) - 1.0) < 1e-12
        assert split.kernel_dim == 2
        # p is multiplicative on every basis pair
        for i, a, _ in spec.graded_basis():
            x = spec.basis_element(i, a)
            for j, b, _ in spec.graded_basis():
                y = spec.basis_element(j, b)
                lhs = p(gr.gmul(x, y))
                rhs = gr.gmul(p(x), p(y))
                assert np.linalg.norm(gr.to_gvector(lhs - rhs)) <= 1e-12

    def test_section_is_right_inverse_exactly(self, corpus):
        for name in ("all-scalar-diamond", "all-scalar-chain4", "mixed-diamond"):
            spec = corpus[name]
            for M in spec.L.enumerate_finishing_subsemilattices():
                split = gr.FinishingSplit(spec, M)
                for i in sorted(M):
                    for a in range(spec.components[i].dim):
                        x = split.p(spec.basis_element(i, a))
                        back = split.p(split.sigma(x))
                        assert all(
                            np.array_equal(c.mats[k], d.mats[k])
                            for c, d in zip(back.comps, x.comps)
                            for k in range(len(c.mats))
                        ), (name, M)

    def test_kernel_plus_image_fills_total(self, corpus):
        for name, spec in corpus.items():
            for k in range(spec.L.n):
                M = spec.L.finishing_set(k)
                split = gr.FinishingSplit(spec, M)
                image_dim = sum(spec.components[i].dim for i in M)
                assert split.kernel_dim + image_dim == spec.total_dim, (name, k)

    def test_full_set_is_identity(self, corpus, rng):
        spec = corpus["m2-chain"]
        split = gr.FinishingSplit(spec, range(spec.L.n))
        x = spec.random_element(rng)
        y = split.p(x)
        assert all(
            fd.frob_norm(c - d) == 0.0 for c, d in zip(x.comps, y.comps)
        )

    def test_non_finishing_rejected_with_counterexample(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        M = {L.index_of("0"), L.index_of("a")}
        assert L.is_subsemilattice(sorted(M))
        with pytest.raises(gr.NotFinishing):
            gr.FinishingSplit(spec, M)

        # the raw truncation genuinely fails to be multiplicative there
        def truncate(x):
            out = spec.zero_element()
            for i in M:
                out.comps[i] = x.comps[i].copy()
            return out

        ea = spec.component_unit(L.index_of("a"))
        eb = spec.component_unit(L.index_of("b"))
        lhs = truncate(gr.gmul(ea, eb))  # = e_bottom, which M keeps
        rhs = gr.gmul(truncate(ea), truncate(eb))
        assert not graded_close(lhs, rhs)

    def test_empty_set_rejected(self, corpus):
        with pytest.raises(gr.NotFinishing):
            gr.FinishingSplit(corpus["all-scalar-diamond"], set())

    def test_bad_indices_rejected(self, corpus):
        spec = corpus["all-scalar-diamond"]
        for M, message in [({4}, "index 4 is out of range for 4 indices"),
                           ({-1}, "index -1 is out of range for 4 indices"),
                           ({0.5, 3}, "index 0.5 is not an integer")]:
            with pytest.raises(InputError) as e:
                gr.FinishingSplit(spec, M)
            assert str(e.value) == message

    def test_project_finishing_shortcut(self, corpus):
        spec = corpus["all-scalar-chain3"]
        out = gr.FinishingSplit(spec, {1, 2}).p(spec.component_unit(0))
        assert all(fd.op_norm(c) == 0.0 for c in out.comps)


# ------------------------------------------------------------ morphisms

class TestMorphisms:
    def test_identity_graded_morphism(self, corpus):
        spec = corpus["mixed-diamond"]
        psi = [fd.identity_hom(c) for c in spec.components]
        m = gr.build_morphism(spec, spec, psi)
        a = gr.analyze_morphism(m)
        assert a.injective and a.surjective
        assert a.total_kernel_dim == 0
        assert a.ker_dims == [0, 0, 0, 0]
        assert a.componentwise

    def test_zero_morphism_plain_target(self, corpus):
        spec = corpus["all-scalar-diamond"]
        psi = [fd.zero_hom(c, SCALAR) for c in spec.components]
        m = gr.build_morphism(spec, SCALAR, psi)
        a = gr.analyze_morphism(m)
        assert not a.injective
        assert not a.surjective
        assert a.total_kernel_dim == spec.total_dim

    def test_pi_bottom_as_plain_morphism(self, corpus):
        spec = corpus["all-scalar-diamond"]
        one = np.array([[1.0]])
        psi = [fd.StarHom(SCALAR, SCALAR, one) for _ in range(4)]
        m = gr.build_morphism(spec, SCALAR, psi)
        a = gr.analyze_morphism(m)
        assert a.surjective
        assert not a.injective
        assert a.total_kernel_dim == 3
        # every component map is injective; failure is the direct-sum test
        assert a.ker_dims == [0, 0, 0, 0]
        assert a.joint_image_dim == 1

    def test_finishing_character_family(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        keep = {L.index_of("a"), L.index_of("1")}
        psi = [
            fd.StarHom(SCALAR, SCALAR, np.array([[1.0 if i in keep else 0.0]]))
            for i in range(4)
        ]
        m = gr.build_morphism(spec, SCALAR, psi)
        a = gr.analyze_morphism(m)
        assert a.surjective and not a.injective

    def test_incompatible_family_rejected(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        keep = {L.index_of("a")}  # not upward closed, so not a character
        psi = [
            fd.StarHom(SCALAR, SCALAR, np.array([[1.0 if i in keep else 0.0]]))
            for i in range(4)
        ]
        with pytest.raises(gr.IncompatibleFamily):
            gr.build_morphism(spec, SCALAR, psi)

    def test_intertwining_failure_rejected(self, corpus):
        source = corpus["all-scalar-chain2"]
        target = corpus["m2-chain"]
        corner = fd.StarHom(SCALAR, M2, np.array([[1.0], [0], [0], [0]]))
        psi = [corner, fd.identity_hom(SCALAR)]
        with pytest.raises(gr.IncompatibleFamily):
            gr.build_morphism(source, target, psi)

    def test_unitary_conjugation_endomorphism(self, corpus, rng):
        spec = corpus["m2-chain"]
        theta = 0.7
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        images = []
        for a in range(4):
            e = fd.basis_element(M2, a)
            images.append(fd.AlgElement(M2, [u @ e.mats[0] @ u.conj().T]))
        conj = fd.StarHom.from_images(M2, M2, images)
        m = gr.build_morphism(spec, spec, [conj, fd.identity_hom(SCALAR)])
        a = gr.analyze_morphism(m)
        assert a.injective and a.surjective
        assert a.total_kernel_dim == 0

    def test_graded_kernel_additivity(self, corpus):
        # quotient maps onto the quotient by an ideal: componentwise
        # kernels sum to the total kernel
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        commencing = {
            L.index_of("0"): {0},
            L.index_of("a"): {0},
            L.index_of("b"): {0},
        }
        report = gr.verify_ideal_gradation(spec, commencing)
        m = gr.build_morphism(spec, report.quotient, report.quotient_maps)
        a = gr.analyze_morphism(m)
        assert a.ker_dims == [1, 1, 1, 0]
        assert a.total_kernel_dim == sum(a.ker_dims)
        assert a.surjective

    def test_apply_matches_total_matrix(self, corpus, rng):
        spec = corpus["mixed-diamond"]
        m = gr.faithful_morphism(spec)
        x = spec.random_element(rng)
        via_matrix = m.total_matrix() @ gr.to_gvector(x)
        assert np.allclose(fd.to_vector(m.apply(x)), via_matrix, atol=1e-12)


def onto_bottom(spec):
    """psi_j = phi_{b,j} into A_b, b the bottom: pi_b, a *-homomorphism of
    the total algebra on a valid spec."""
    b = spec.L.bottom()
    return [spec.structure_map(b, j) for j in range(spec.L.n)], spec.components[b]


def into_ambient(spec):
    """psi_j = pi's columns of A_j: the faithful morphism's family."""
    m = gr.faithful_morphism(spec)
    return m.psi, m.target


@st.composite
def perturbed_families(draw):
    """(spec, target, psi) over a corpus or oracle spec: the onto-bottom or
    the faithful family into a plain target, or the identities into the
    spec itself; each member conjugated by an angle from PERTURBATIONS
    (None: the zero map), or every member by one common unitary, or given
    additive noise of 1e-6."""
    specs = {**standard_corpus(), **ORACLE_SPECS}
    name = draw(st.sampled_from(sorted(specs)))
    spec = specs[name]
    kind = draw(st.sampled_from(["bottom", "ambient", "graded"]))
    if kind == "graded":
        psi, target = [fd.identity_hom(c) for c in spec.components], spec
    else:
        psi, target = (onto_bottom if kind == "bottom" else into_ambient)(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(["each", "common", "noise"]))
    if how == "common":
        seed = draw(st.integers(0, 2**32 - 1))
        psi = [conjugated(h, 0.7, np.random.default_rng(seed)) for h in psi]
    elif how == "noise":
        out = []
        for h in psi:
            noise = 1e-6 * rng.standard_normal(h.matrix.shape) if draw(st.booleans()) else 0.0
            out.append(fd.StarHom(h.source, h.target, h.matrix + noise))
        psi = out
    else:
        out = []
        for h in psi:
            theta = draw(st.sampled_from(PERTURBATIONS))
            if theta is None:
                out.append(fd.zero_hom(h.source, h.target))
            else:
                out.append(conjugated(h, theta, rng) if theta else h)
        psi = out
    return spec, target, psi


class TestMorphismsAgainstReference:
    """build_morphism accepts exactly the families the per-pair route
    accepts; on a graded target it also raises the same exceptions with
    the same messages."""

    @settings(max_examples=60, deadline=None)
    @given(perturbed_families())
    def test_same_decision(self, family):
        spec, target, psi = family
        try:
            morphism_reference(spec, target, psi)
        except ValidationFailure as exc:
            want = type(exc) if isinstance(target, gr.GradedSpec) else gr.IncompatibleFamily
            with pytest.raises(want) as got:
                gr.build_morphism(spec, target, psi)
            if isinstance(target, gr.GradedSpec):
                assert str(got.value) == str(exc)
            return
        m = gr.build_morphism(spec, target, psi)
        assert m.psi == psi

    def test_no_q_family(self, corpus, monkeypatch):
        def no_q_family(spec):
            raise AssertionError("q family built")

        monkeypatch.setattr(gr, "q_family_from_spec", no_q_family)
        for name, spec in {**corpus, **ORACLE_SPECS}.items():
            gr.faithful_morphism(spec)
            psi, target = onto_bottom(spec)
            gr.build_morphism(spec, target, psi)
            doubled = [fd.StarHom(h.source, h.target, 2 * h.matrix) for h in psi]
            with pytest.raises(gr.IncompatibleFamily):
                gr.build_morphism(spec, target, doubled)

    def test_plain_target_validates_the_source(self, monkeypatch):
        calls = []
        real = gr.validate_spec

        def validate_spec(spec, tol=gr.AXIOM_TOL):
            calls.append(tol)
            return real(spec, tol)

        monkeypatch.setattr(gr, "validate_spec", validate_spec)
        spec = m2_chain_spec()
        gr.faithful_morphism(spec)
        gr.faithful_morphism(spec)
        assert calls == [gr.AXIOM_TOL]
        twice = fd.StarHom(SCALAR, SCALAR, [[2.0]])
        bad = gr.GradedSpec(spec.L, spec.components, {**spec.phi, (1, 1): twice})
        with pytest.raises(gr.AxiomAViolation):
            gr.faithful_morphism(bad)


# --------------------------------------------------------------- ideals

class TestIdeals:
    def test_empty_ideal_gives_back_spec(self, corpus):
        spec = corpus["mixed-diamond"]
        report = gr.verify_ideal_gradation(spec, {})
        assert report.ideal_dim == 0
        assert report.quotient.total_dim == spec.total_dim
        for pair, h in spec.phi.items():
            assert np.allclose(report.quotient.phi[pair].matrix, h.matrix)

    def test_quotient_keeps_phi_order(self, corpus):
        for name, spec in corpus.items():
            quotient = gr.verify_ideal_gradation(spec, {}).quotient
            assert list(quotient.phi) == list(spec.phi), name

    def test_full_ideal_gives_zero_quotient(self, corpus):
        spec = corpus["m2-chain"]
        everything = {
            i: set(range(spec.components[i].nblocks)) for i in range(2)
        }
        report = gr.verify_ideal_gradation(spec, everything)
        assert report.ideal_dim == spec.total_dim
        assert report.quotient.total_dim == 0

    def test_commencing_part_of_diamond(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        sel = {
            L.index_of("0"): {0},
            L.index_of("a"): {0},
            L.index_of("b"): {0},
        }
        report = gr.verify_ideal_gradation(spec, sel)
        assert report.ideal_dim == 3
        assert report.quotient.total_dim == 1
        assert report.quotient.components[L.index_of("1")].dim == 1

    def test_bottom_component_of_chain(self, corpus):
        spec = corpus["m2-chain"]
        report = gr.verify_ideal_gradation(spec, {0: {0}})
        assert report.ideal_dim == 4
        assert report.quotient.total_dim == 1

    def test_single_block_ideal(self, corpus):
        spec = corpus["block-chain"]
        report = gr.verify_ideal_gradation(spec, {0: {0}})
        assert report.ideal_dim == 4
        assert report.quotient.components[0].blocks == (1,)
        gr.validate_spec(report.quotient)

    def test_non_ideal_rejected(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        with pytest.raises(gr.NotAnIdeal):
            gr.verify_ideal_gradation(spec, {L.index_of("a"): {0}})

    def test_top_component_not_an_ideal(self, corpus):
        spec = corpus["m2-chain"]
        with pytest.raises(gr.NotAnIdeal):
            gr.verify_ideal_gradation(spec, {1: {0}})

    def test_block_out_of_range(self, corpus):
        spec = corpus["m2-chain"]
        with pytest.raises(InputError):
            gr.verify_ideal_gradation(spec, {0: {5}})


# -------------------------------------------------------- commutativity

class TestCommutativity:
    def test_equivalence_across_corpus(self, corpus):
        for name, spec in corpus.items():
            assert gr.components_commutative(spec) == gr.total_commutative(
                spec
            ), name

    def test_all_scalar_commutative(self, corpus):
        assert gr.total_commutative(corpus["all-scalar-diamond"])

    def test_matrix_component_not_commutative(self, corpus):
        assert not gr.components_commutative(corpus["m2-chain"])
        assert not gr.total_commutative(corpus["m2-chain"])


# -------------------------------------------------------- chain closure

class TestChainClosure:
    def test_diamond_covers(self):
        L = sl.diamond()
        covers = gr.covering_pairs(L)
        assert set(covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_all_scalar_completion(self):
        L = sl.diamond()
        partial = {pair: fd.identity_hom(SCALAR) for pair in gr.covering_pairs(L)}
        full = gr.complete_phi_by_chains(L, [SCALAR] * 4, partial)
        assert set(full) == set(L.comparable_pairs())
        spec = gr.GradedSpec(L, [SCALAR] * 4, full)
        gr.validate_spec(spec)

    def test_chain_composition(self):
        L = sl.chain(3)
        corner = fd.StarHom(SCALAR, M2, np.array([[1.0], [0], [0], [0]]))
        partial = {
            (1, 2): fd.identity_hom(SCALAR),
            (0, 1): corner,
        }
        full = gr.complete_phi_by_chains(L, [M2, SCALAR, SCALAR], partial)
        assert np.allclose(full[(0, 2)].matrix, corner.matrix)

    def test_path_dependence_detected(self):
        L = sl.diamond()
        corner = fd.StarHom(SCALAR, M2, np.array([[1.0], [0], [0], [0]]))
        partial = {
            (1, 3): fd.identity_hom(SCALAR),
            (2, 3): fd.identity_hom(SCALAR),
            (0, 1): unital_embedding(M2),
            (0, 2): corner,
        }
        with pytest.raises(gr.PathDependence):
            gr.complete_phi_by_chains(L, [M2, SCALAR, SCALAR, SCALAR], partial)

    def test_missing_cover_rejected(self):
        L = sl.chain(2)
        with pytest.raises(gr.MissingHom):
            gr.complete_phi_by_chains(L, [SCALAR, SCALAR], {})

    def test_provided_shortcut_checked(self):
        L = sl.chain(3)
        partial = {
            (0, 1): fd.identity_hom(SCALAR),
            (1, 2): fd.identity_hom(SCALAR),
            (0, 2): fd.StarHom(SCALAR, SCALAR, np.array([[0.0]])),
        }
        with pytest.raises(gr.PathDependence):
            gr.complete_phi_by_chains(L, [SCALAR] * 3, partial)

    def test_named_pairs_and_messages(self):
        # both covers of the diamond's bottom disagree at (0, 1); the given
        # shortcut of chain(3) is named with its own message
        L = sl.diamond()
        corner = fd.StarHom(SCALAR, M2, np.array([[1.0], [0], [0], [0]]))
        partial = {
            (1, 3): fd.identity_hom(SCALAR),
            (2, 3): fd.identity_hom(SCALAR),
            (0, 1): unital_embedding(M2),
            (0, 2): corner,
        }
        with pytest.raises(
            gr.PathDependence, match=r"^chain compositions for \(0, 1\) disagree by 1\.000e\+00$"
        ):
            gr.complete_phi_by_chains(L, [M2, SCALAR, SCALAR, SCALAR], partial)
        ident = fd.identity_hom(SCALAR)
        partial = {(0, 1): ident, (1, 2): ident, (0, 2): fd.zero_hom(SCALAR, SCALAR)}
        with pytest.raises(
            gr.PathDependence,
            match=r"^given phi for \(0, 2\) disagrees with its chain composition by 1\.000e\+00$",
        ):
            gr.complete_phi_by_chains(sl.chain(3), [SCALAR] * 3, partial)

    def test_wrongly_shaped_shortcut_rejected(self):
        # phi_{0,2} given as a map M_2 -> C on a chain of scalars: zeros
        # used to read as a path disagreement, ones to pass the closure
        ident = fd.identity_hom(SCALAR)
        for fill in (0.0, 1.0):
            shortcut = fd.StarHom(M2, SCALAR, np.full((1, 4), fill))
            partial = {(0, 1): ident, (1, 2): ident, (0, 2): shortcut}
            with pytest.raises(
                fd.ShapeMismatch,
                match=(
                    r"^given phi for \(0, 2\) maps AlgebraShape\(\[2\]\) -> "
                    r"AlgebraShape\(\[1\]\), its chain composition "
                    r"AlgebraShape\(\[1\]\) -> AlgebraShape\(\[1\]\)$"
                ),
            ):
                gr.complete_phi_by_chains(sl.chain(3), [SCALAR] * 3, partial)

    def test_wrongly_shaped_cover_rejected(self):
        # phi_{0,1} given as a map C^4 -> C where A_1 = M_2: the same
        # dimension, so only the shapes tell them apart
        cover = fd.StarHom(fd.AlgebraShape([1, 1, 1, 1]), SCALAR, np.ones((1, 4)))
        partial = {(0, 1): cover, (1, 2): unital_embedding(M2)}
        with pytest.raises(
            fd.ShapeMismatch,
            match=(
                r"^given phi for \(0, 1\) maps AlgebraShape\(\[1, 1, 1, 1\]\) -> "
                r"AlgebraShape\(\[1\]\), its chain composition "
                r"AlgebraShape\(\[2\]\) -> AlgebraShape\(\[1\]\)$"
            ),
        ):
            gr.complete_phi_by_chains(sl.chain(3), [SCALAR, M2, SCALAR], partial)

    def test_agrees_with_enumeration(self):
        # scalar 0/1 covers, M_2 corner or unital embeddings and random
        # shortcuts off by 1e-12: the same decision as composing along
        # every chain, the same exception type, and the same maps bit for
        # bit on acceptance (so compositions use the covers only)
        rng = np.random.default_rng(20261018)
        lattices = [sl.chain(n) for n in (2, 3, 4, 5)] + [
            sl.diamond(),
            sl.antichain_with_bottom(3),
            sl.product_semilattice(sl.chain(2), sl.chain(3)),
            sl.product_semilattice(sl.chain(3), sl.chain(3)),
            sl.product_semilattice(sl.diamond(), sl.chain(2)),
        ]
        outcomes = {"accepted": 0, "MissingHom": 0, "PathDependence": 0}
        for trial in range(360):
            L = lattices[trial % len(lattices)]
            comps = [M2 if rng.random() < 0.3 else SCALAR for _ in range(L.n)]
            covers = set(gr.covering_pairs(L))
            partial = {}
            for i, j in L.comparable_pairs():
                cover = (i, j) in covers
                if i == j or not (cover or rng.random() < 0.3):
                    continue
                h = random_closure_map(rng, comps[j], comps[i])
                if not cover:  # within tol of the map, not equal to it
                    h = fd.StarHom(h.source, h.target, h.matrix + 1e-12)
                partial[(i, j)] = h
            if rng.random() < 0.05:
                del partial[next(iter(partial))]
            try:
                want = complete_phi_by_enumeration(L, comps, partial)
            except (gr.MissingHom, gr.PathDependence) as exc:
                with pytest.raises(type(exc)) as got:
                    gr.complete_phi_by_chains(L, comps, partial)
                if isinstance(exc, gr.MissingHom):
                    assert str(got.value) == str(exc)
                else:  # the pair named may differ
                    name = "|".join(map(re.escape, L.names))
                    pair = rf"\(({name}), ({name})\)"
                    assert re.fullmatch(
                        rf"(chain compositions for {pair} disagree|given phi for "
                        rf"{pair} disagrees with its chain composition) by \S+",
                        str(got.value),
                    ), str(got.value)
                outcomes[type(exc).__name__] += 1
                continue
            got = gr.complete_phi_by_chains(L, comps, partial)
            assert list(got) == list(want)
            for pair, h in want.items():
                assert got[pair].matrix.tobytes() == h.matrix.tobytes(), (trial, pair)
            outcomes["accepted"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_large_grid_document(self):
        # 12 x 12 grid: 264 covering maps and 6084 comparable pairs, whose
        # intervals hold about 10^7 maximal chains between them
        L = sl.product_semilattice(sl.chain(12), sl.chain(12))
        doc = wb.spec_to_document(wb.build_all_scalar(L))
        covers = {(L.names[i], L.names[j]) for i, j in gr.covering_pairs(L)}
        doc["phi"] = [e for e in doc["phi"] if (e["to"], e["from"]) in covers]
        doc["closure"] = "chains"
        assert len(doc["phi"]) == 264
        spec = wb.document_to_spec(doc)
        assert np.array_equal(spec.pi, L.le)


def random_closure_map(rng, source, target):
    """A map A_j -> A_i with 0/1 entries: 0 or 1 between scalars, zero
    out of M_2 into the scalars, a corner or the unital embedding into M_2."""
    if source == target == SCALAR:
        return fd.StarHom(SCALAR, SCALAR, np.array([[float(rng.integers(2))]]))
    if target == SCALAR:
        return fd.zero_hom(source, target)
    if source == SCALAR:
        col = np.zeros((4, 1))
        col[[0, 3][rng.integers(2)]] = 1.0
        return unital_embedding(M2) if rng.random() < 0.5 else fd.StarHom(SCALAR, M2, col)
    swap = np.eye(4)[[3, 2, 1, 0]]  # conjugation by the flip
    return fd.identity_hom(M2) if rng.random() < 0.7 else fd.StarHom(M2, M2, swap)


# ------------------------------------------------------- restriction

class TestRestrictSpec:
    def test_upper_pair_of_diamond(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        sub, remap = gr.restrict_spec(spec, {L.index_of("a"), L.index_of("1")})
        assert sub.L.n == 2
        assert sub.L.leq(0, 1)
        assert remap[L.index_of("a")] == 0

    def test_not_meet_closed_rejected(self, corpus):
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        with pytest.raises(InputError):
            gr.restrict_spec(spec, {L.index_of("a"), L.index_of("b")})

    def test_phi_lists_every_comparable_pair_lexicographically(self, corpus):
        for name, spec in corpus.items():
            sub, _ = gr.restrict_spec(spec, range(spec.L.n))
            assert list(sub.phi) == sub.L.comparable_pairs(), name
            assert sub.pi.tobytes() == spec.pi.tobytes(), name

    def test_index_out_of_range_named(self):
        spec = wb.demo_spec("chain-3")
        for M, bad in [([0, 7], 7), ([-1, 2], -1), ([3, -2, 5], -2)]:
            with pytest.raises(InputError, match=rf"^index {bad} is out of range for 3 indices$"):
                gr.restrict_spec(spec, M)
            with pytest.raises(InputError, match=rf"^index {bad} is out of range for 3 indices$"):
                sp.restriction_spectrum_map(spec, M)

    def test_non_integer_index_named(self):
        spec = wb.demo_spec("chain-3")
        for M, bad in [([0.5, 2], "0.5"), ([True, 2], "True"), ([2, "a"], "'a'")]:
            with pytest.raises(InputError, match=rf"^index {bad} is not an integer$"):
                gr.restrict_spec(spec, M)
            with pytest.raises(InputError, match=rf"^index {bad} is not an integer$"):
                sp.restriction_spectrum_map(spec, M)
        sub, remap = gr.restrict_spec(spec, iter([np.int64(2), 1]))
        assert remap == {1: 0, 2: 1}

    def test_first_offender_in_lexicographic_order(self):
        # phi_{0,0} and phi_{0,1} both fail; the diagonal comes first
        twice = fd.StarHom(SCALAR, SCALAR, np.array([[2.0]]))
        ident = fd.identity_hom(SCALAR)
        phi = {(0, 1): twice, (1, 2): ident, (0, 2): ident, (0, 0): twice}
        sub, _ = gr.restrict_spec(gr.GradedSpec(sl.chain(3), [SCALAR] * 3, phi), [0, 1])
        with pytest.raises(sp.NotAllScalar, match=r"pair \(0, 0\) is not"):
            sp.finishing_correspondence(sub)


# ----------------------------------------- ideal decisions against the gmul loop

def block_selections(spec):
    """Every per-index subset of blocks."""
    choices = [
        [set(s) for r in range(c.nblocks + 1) for s in itertools.combinations(range(c.nblocks), r)]
        for c in spec.components
    ]
    for picks in itertools.product(*choices):
        yield {i: s for i, s in enumerate(picks) if s}


def assert_ideal_decision_matches_reference(spec, selection, products=None):
    """On a spec that validates, verify_ideal_gradation accepts exactly the
    selections the gmul loop accepts. An accepted selection reports its
    dimension and a leak within tol, and its quotient's pi is the spec's pi
    on the coordinates outside the selected blocks, byte for byte."""
    try:
        ideal_leak_reference(spec, selection, products=products)
    except gr.NotAnIdeal:
        with pytest.raises(gr.NotAnIdeal, match=r"^phi\[.+\] maps the ideal outside itself by "):
            gr.verify_ideal_gradation(spec, selection)
        return
    report = gr.verify_ideal_gradation(spec, selection)
    kept = np.array([
        blk not in selection.get(i, ())
        for i, c in enumerate(spec.components)
        for blk, _, _ in c.basis_triples()
    ], dtype=bool)
    assert report.ideal_dim == int((~kept).sum())
    assert report.max_leak <= gr.AXIOM_TOL
    assert report.quotient.pi.tobytes() == spec.pi[np.ix_(kept, kept)].tobytes()


def assert_validation_first(spec, selection):
    """verify_ideal_gradation raises what validate_spec raises on a spec
    that fails it; on one that passes, it decides as the gmul loop does."""
    twin = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi)
    try:
        gr.validate_spec(twin)
    except ValidationFailure as exc:
        with pytest.raises(type(exc)) as got:
            gr.verify_ideal_gradation(spec, selection)
        assert str(got.value) == str(exc)
        return False
    assert_ideal_decision_matches_reference(spec, selection)
    return True


def ideal_specs(corpus):
    """Every validated spec the ideal decision is checked on."""
    return {
        **corpus,
        **{f"oracle-{name}": spec for name, spec in ORACLE_SPECS.items()},
        "coset-z4": wb.demo_spec("coset-z4"),
        "coset-s3": wb.build_coset_spec(*wb.coset_s3_family())[0],
    }


IDEAL_SPEC_NAMES = (
    [*standard_corpus()]
    + [f"oracle-{name}" for name in ORACLE_SPECS]
    + ["coset-z4", "coset-s3"]
)


@st.composite
def validating_perturbed_specs(draw):
    """An oracle spec whose off-diagonal maps are conjugated by angles
    around AXIOM_TOL, kept only when it validates. Conjugation by a
    blockwise unitary keeps every map's block pattern."""
    spec = ORACLE_SPECS[draw(st.sampled_from(sorted(ORACLE_SPECS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = st.floats(-11.0, -8.5).map(lambda e: 10.0**e)
    spec = perturbed(spec, rng, lambda t, j: draw(angle))
    try:
        gr.validate_spec(gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi))
    except ValidationFailure:
        assume(False)
    return spec


class TestIdealsAgainstReference:
    @pytest.mark.parametrize("name", IDEAL_SPEC_NAMES)
    def test_every_block_selection(self, corpus, name):
        spec = ideal_specs(corpus)[name]
        gr.validate_spec(spec)
        products = {}
        for selection in block_selections(spec):
            assert_ideal_decision_matches_reference(spec, selection, products)

    @settings(max_examples=15, deadline=None)
    @given(perturbed_specs(), st.randoms(use_true_random=False))
    def test_perturbed_specs(self, spec, random):
        selection = {
            i: {b for b in range(c.nblocks) if random.random() < 0.5}
            for i, c in enumerate(spec.components)
        }
        assert_validation_first(spec, selection)

    @settings(max_examples=10, deadline=None)
    @given(validating_perturbed_specs(), st.randoms(use_true_random=False))
    def test_validating_perturbed_specs(self, spec, random):
        products = {}
        for _ in range(8):
            selection = {
                i: {b for b in range(c.nblocks) if random.random() < 0.3}
                for i, c in enumerate(spec.components)
            }
            assert_ideal_decision_matches_reference(spec, selection, products)

    def test_nan_leak_fails(self):
        # block-chain with phi_01(1) = (I_2, nan): validate_spec refuses
        # the map before any ideal is looked at. The gmul loop's
        # max(0.0, nan) keeps 0.0.
        spec = block_chain_spec()
        m = spec.phi[(0, 1)].matrix.copy()
        m[4, 0] = np.nan
        spec = gr.GradedSpec(
            spec.L, spec.components,
            {(0, 1): fd.StarHom(spec.components[1], spec.components[0], m)},
        )
        assert ideal_leak_reference(spec, {0: {0}}) == 0.0
        assert not assert_validation_first(spec, {0: {0}})
        with pytest.raises(gr.HomNotStar, match=r"^phi\[0,1\]: .*nan"):
            gr.verify_ideal_gradation(spec, {0: {0}})

    def test_nan_entry_of_pi_fails(self):
        # the same map under a forged verdict: selecting the top and the
        # M_2 block puts the nan in pi's rows off the ideal, columns in it
        spec = block_chain_spec()
        m = spec.phi[(0, 1)].matrix.copy()
        m[4, 0] = np.nan
        spec = gr.GradedSpec(
            spec.L, spec.components,
            {(0, 1): fd.StarHom(spec.components[1], spec.components[0], m)},
        )
        spec.validated_tol = gr.AXIOM_TOL
        with pytest.raises(
            gr.NotAnIdeal, match=r"^phi\[0,1\] maps the ideal outside itself by nan$"
        ):
            gr.verify_ideal_gradation(spec, {0: {0}, 1: {0}})

    def test_first_map_named_and_leak_reported(self, corpus):
        # on the diamond, selecting only the bottom's atom a leaks through
        # phi[0,a]; the accepted commencing part reports a leak of 0
        spec = corpus["all-scalar-diamond"]
        L = spec.L
        a, b = L.index_of("a"), L.index_of("b")
        with pytest.raises(
            gr.NotAnIdeal, match=r"^phi\[0,a\] maps the ideal outside itself by 1\.000e\+00$"
        ):
            gr.verify_ideal_gradation(spec, {a: {0}, b: {0}})
        assert gr.verify_ideal_gradation(spec, {0: {0}, a: {0}}).max_leak == 0.0


class TestIdealRoute:
    """verify_ideal_gradation decides on pi alone: no q family, no pair
    products outside validate_spec, and the source validated at most once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        validated, inside = [], []
        real_validate, real_products = gr.validate_spec, fd.pair_products

        def validate_spec(spec, tol=gr.AXIOM_TOL):
            validated.append((spec, tol))
            inside.append(True)
            try:
                return real_validate(spec, tol)
            finally:
                inside.pop()

        def pair_products(*args):
            assert inside, "pair_products called outside validate_spec"
            return real_products(*args)

        def no_q_family(spec):
            raise AssertionError("q family built")

        monkeypatch.setattr(gr, "validate_spec", validate_spec)
        monkeypatch.setattr(fd, "pair_products", pair_products)
        monkeypatch.setattr(gr, "q_family_from_spec", no_q_family)
        return validated

    def test_source_validated_once_then_never(self, calls):
        spec = mixed_diamond_spec()
        L = spec.L
        commencing = {L.index_of("0"): {0}, L.index_of("a"): {0}}
        gr.verify_ideal_gradation(spec, commencing)
        assert [tol for s, tol in calls if s is spec] == [gr.AXIOM_TOL]
        assert spec.validated_tol == gr.AXIOM_TOL
        calls.clear()
        gr.verify_ideal_gradation(spec, {L.index_of("0"): {0}})
        with pytest.raises(gr.NotAnIdeal):
            gr.verify_ideal_gradation(spec, {L.index_of("a"): {0}})
        assert [s for s, _ in calls if s is spec] == []

    def test_looser_verdict_is_rechecked(self, calls):
        spec = m2_chain_spec()
        gr.validate_spec(spec, 1e-6)
        calls.clear()
        gr.verify_ideal_gradation(spec, {0: {0}})
        assert [tol for s, tol in calls if s is spec] == [gr.AXIOM_TOL]

    def test_rejection_validates_only_the_source(self, calls):
        spec = all_scalar_spec(sl.chain(64))
        with pytest.raises(gr.NotAnIdeal, match=r"^phi\[0,1\] maps the ideal"):
            gr.verify_ideal_gradation(spec, {1: {0}})
        assert [s for s, _ in calls] == [spec]

    def test_block_range_checked_before_validation(self, calls):
        spec = m2_chain_spec()
        with pytest.raises(InputError, match="out of range for 1 blocks"):
            gr.verify_ideal_gradation(spec, {0: {5}})
        assert calls == []


# ------------------------------------------------ one reader of the verdict

def pi_columns_hom(spec, ambient, j):
    """pi's columns of index j, as a map into the ambient shape."""
    return fd.StarHom(spec.components[j], ambient, spec.pi[:, spec.span(j)])


VERDICT_READERS = ("graded_characters", "verify_k0", "build_morphism", "verify_ideal_gradation")


def verdict_reader(name):
    """(spec, call(tol)) for one of the four readers of a spec's verdict;
    verify_k0 takes no tol and reads gr.AXIOM_TOL."""
    if name == "graded_characters":
        scalar = all_scalar_spec(sl.chain(3))
        return scalar, lambda tol: sp.graded_characters(scalar, tol)
    m2 = m2_chain_spec()
    ambient = m2.ambient_shape()
    psi = [pi_columns_hom(m2, ambient, j) for j in range(m2.L.n)]
    return m2, {
        "verify_k0": lambda tol: kt.verify_k0(m2),
        "build_morphism": lambda tol: gr.build_morphism(m2, ambient, psi, tol),
        "verify_ideal_gradation": lambda tol: gr.verify_ideal_gradation(m2, {0: {0}}, tol),
    }[name]


class TestRequireVerdict:
    @pytest.mark.parametrize("name", VERDICT_READERS)
    def test_readers_trust_a_verdict_within_tol(self, name, monkeypatch):
        spec, call = verdict_reader(name)
        gr.validate_spec(spec)
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a) or real(*a))
        call(gr.AXIOM_TOL)
        assert [s for s, *_ in calls if s is spec] == []

    @pytest.mark.parametrize("name", VERDICT_READERS)
    def test_readers_validate_on_a_nan_tol(self, name, monkeypatch):
        # a NaN tol fails every comparison, so a verdict cannot be within
        # it: the spec is validated, and validation at NaN fails
        spec, call = verdict_reader(name)
        gr.validate_spec(spec)
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(gr, "AXIOM_TOL", np.nan)
        with pytest.raises(ValidationFailure):
            call(np.nan)
        assert len(calls) == 1 and calls[0][0] is spec and np.isnan(calls[0][1])


# ------------------------------------------- quotients inherit the verdict

def assert_quotient_verdict(spec, selection):
    """An accepted selection that leaks nothing hands the spec's verdict
    and bounds to the quotient with no validate_spec call on it, and a
    copy of the quotient with no verdict measures residuals within those
    bounds; one that leaks within tol has its quotient validated once.
    Returns the leak, or None for a rejected selection."""
    calls = []
    real = gr.validate_spec
    gr.validate_spec = lambda *a: calls.append(a[0]) or real(*a)
    try:
        report = gr.verify_ideal_gradation(spec, selection)
    except gr.NotAnIdeal:
        return None
    finally:
        gr.validate_spec = real
    q = report.quotient
    if report.max_leak != 0.0:
        assert [s for s in calls if s is not spec] == [q]
        return report.max_leak
    assert [s for s in calls if s is not spec] == []
    assert q.validated_tol == spec.validated_tol
    assert q.validated_bounds == spec.validated_bounds
    # at tol = 1 the *-hom checks run over basis pairs: exact residuals;
    # axiom_b_reference gives the largest basis-pair residual of axiom (b)
    fresh = gr.GradedSpec.from_pi(q.L, q.components, q.pi)
    got = real(fresh, 1.0)
    bounds = q.validated_bounds
    assert got.identity_residual <= bounds.identity
    assert got.hom_star_residual <= bounds.star
    assert got.hom_mult_residual <= bounds.hom
    assert axiom_b_reference(fresh, 1.0)[0] <= bounds.axiom_b
    return 0.0


class TestQuotientVerdict:
    @pytest.mark.parametrize("name", IDEAL_SPEC_NAMES)
    def test_every_block_selection(self, corpus, name):
        spec = ideal_specs(corpus)[name]
        gr.validate_spec(spec)
        leaks = [assert_quotient_verdict(spec, sel) for sel in block_selections(spec)]
        assert 0.0 in leaks

    @settings(max_examples=15, deadline=None)
    @given(validating_perturbed_specs(), st.randoms(use_true_random=False))
    def test_validating_perturbed_specs(self, spec, random):
        for _ in range(8):
            selection = {
                i: {b for b in range(c.nblocks) if random.random() < 0.3}
                for i, c in enumerate(spec.components)
            }
            assert_quotient_verdict(spec, selection)

    def test_leak_within_tol_validates_the_quotient(self):
        # phi_01 = 1e-12 on the scalars is a *-hom within tol, and the
        # top's block leaks through it by 1e-12
        tiny = fd.StarHom(SCALAR, SCALAR, np.array([[1e-12]]))
        spec = gr.GradedSpec(sl.chain(2), [SCALAR, SCALAR], {(0, 1): tiny})
        assert assert_quotient_verdict(spec, {1: {0}}) == 1e-12
