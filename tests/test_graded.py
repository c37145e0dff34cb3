import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import semilattice as sl
from gradedcstar.errors import GradedCstarError, InputError

from conftest import (
    M2,
    SCALAR,
    all_scalar_spec,
    block_chain_spec,
    m2_chain_spec,
    mixed_diamond_spec,
    unital_embedding,
)
from element_references import ideal_leak_reference


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
        assert spec.offsets == [0, 4, 8, 9]


# ----------------------------------------------------------- validation

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
        for name, spec in corpus.items():
            report = gr.validate_spec(spec)
            singles = [fd.validate_starhom(h) for h in spec.phi.values()]
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


# ------------------------------------- axiom (b) against the reference loop

def axiom_b_reference(spec, tol=gr.AXIOM_TOL):
    """Axiom (b) one (i, j, m) at a time, with a pair product per triple:
    the reference validate_spec's single pair product per (i, j) must
    match. Returns (max residual, triples checked) or raises on the first
    failing triple."""
    L = spec.L
    b_res = 0.0
    pairs = 0
    for i in range(L.n):
        for j in range(L.n):
            k = L.meet_of(i, j)
            below = [m for m in range(L.n) if L.leq(m, k)]
            prod_k = fd.pair_products(
                spec.components[k], spec.phi[(k, i)].matrix, spec.phi[(k, j)].matrix
            )
            for m in below:
                pairs += 1
                lhs = prod_k if m == k else prod_k @ spec.phi[(m, k)].matrix.T
                rhs = fd.pair_products(
                    spec.components[m], spec.phi[(m, i)].matrix, spec.phi[(m, j)].matrix
                )
                diff = np.abs(lhs - rhs)
                r = fd.maxabs(diff)
                if not r <= tol:
                    flat = int(diff.reshape(-1).argmax())
                    di = spec.components[i].dim
                    dj = spec.components[j].dim
                    a, b = divmod(flat // spec.components[m].dim, dj) if dj else (0, 0)
                    raise gr.AxiomBViolation(
                        L.names[i], L.names[j], L.names[m],
                        spec.basis_label(i, min(a, di - 1)),
                        spec.basis_label(j, b),
                        r,
                    )
                b_res = max(b_res, r)
    return b_res, pairs


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


@st.composite
def perturbed_specs(draw):
    specs = {**ORACLE_SPECS, **FAILING_SPECS}
    spec = specs[draw(st.sampled_from(sorted(specs)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = {}
    for (t, j), h in sorted(spec.phi.items()):
        theta = draw(st.sampled_from(PERTURBATIONS)) if t != j else 0.0
        if theta is None:
            phi[(t, j)] = fd.zero_hom(h.source, h.target)
        elif theta:
            phi[(t, j)] = conjugated(h, theta, rng)
        else:
            phi[(t, j)] = h
    return gr.GradedSpec(spec.L, spec.components, phi)


class TestAxiomBAgainstReference:
    def test_oracle_specs_pass(self):
        for name, spec in ORACLE_SPECS.items():
            report = gr.validate_spec(spec)
            assert report.axiom_b_residual == 0.0, name
            assert report.pairs_checked == axiom_b_reference(spec)[1], name

    @settings(max_examples=60, deadline=None)
    @given(perturbed_specs())
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
        assert report.axiom_b_residual == pytest.approx(want[0], abs=1e-12)

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

    def test_one_pair_product_per_group(self, monkeypatch):
        # all-scalar chain(12): 11 meets with something below, one
        # dimension group each, plus one stacked *-hom check
        calls = []
        real = fd.pair_products
        monkeypatch.setattr(fd, "pair_products", lambda *a: calls.append(1) or real(*a))
        gr.validate_spec(all_scalar_spec(sl.chain(12)))
        assert len(calls) <= 12


# ------------------------------------------------------------- q family

def assert_q_matches_per_pair(spec, name=""):
    """Every stacked q tensor equals its own pair_products(A_k, phi_ki,
    phi_kj), k = i ^ j, entry for entry."""
    fam = gr.QFamily.from_spec(spec)
    assert set(fam.tensors) == {(i, j) for i in range(spec.L.n) for j in range(spec.L.n)}
    for (i, j), t in fam.tensors.items():
        k = spec.L.meet_of(i, j)
        want = fd.pair_products(
            spec.components[k], spec.phi[(k, i)].matrix, spec.phi[(k, j)].matrix
        )
        np.testing.assert_array_equal(t, want.transpose(2, 0, 1), err_msg=f"{name} {(i, j)}")


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
        gr.QFamily.from_spec(all_scalar_spec(sl.chain(12)))
        assert len(calls) <= 12

    def test_family_axioms_hold_on_corpus(self, corpus):
        for name, spec in corpus.items():
            fam = gr.q_family_from_spec(spec)
            assert fam.validate(), name

    def test_family_apply_matches_pointwise(self, rng):
        spec = mixed_diamond_spec()
        fam = gr.q_family_from_spec(spec)
        for i in range(4):
            for j in range(4):
                x = fd.random_element(spec.components[i], rng)
                y = fd.random_element(spec.components[j], rng)
                d = fam.apply(i, j, x, y) - gr.q_from_phi(spec, i, j, x, y)
                assert fd.frob_norm(d) < 1e-12

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


# ----------------------------------------------------------- arithmetic

class TestArithmetic:
    def test_all_scalar_units_multiply_to_meet(self, corpus):
        for name, spec in corpus.items():
            if not name.startswith("all-scalar"):
                continue
            for i in range(spec.L.n):
                for j in range(spec.L.n):
                    prod = gr.gmul(spec.component_unit(i), spec.component_unit(j))
                    want = spec.component_unit(spec.L.meet_of(i, j))
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


# --------------------------------------------------------------- ideals

class TestIdeals:
    def test_empty_ideal_gives_back_spec(self, corpus):
        spec = corpus["mixed-diamond"]
        report = gr.verify_ideal_gradation(spec, {})
        assert report.ideal_dim == 0
        assert report.quotient.total_dim == spec.total_dim
        for pair, h in spec.phi.items():
            assert np.allclose(report.quotient.phi[pair].matrix, h.matrix)

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


# ----------------------------------------- ideal leaks against the gmul loop

def block_selections(spec):
    """Every per-index subset of blocks."""
    choices = [
        [set(s) for r in range(c.nblocks + 1) for s in itertools.combinations(range(c.nblocks), r)]
        for c in spec.components
    ]
    for picks in itertools.product(*choices):
        yield {i: s for i, s in enumerate(picks) if s}


def assert_leaks_match_reference(spec, selection):
    """verify_ideal_gradation fails at the product check exactly where the
    gmul loop does, with its message, and otherwise reports its largest
    leak (a later check may still fail)."""
    try:
        want = ideal_leak_reference(spec, selection)
    except gr.NotAnIdeal as exc:
        with pytest.raises(gr.NotAnIdeal) as got:
            gr.verify_ideal_gradation(spec, selection)
        assert str(got.value) == str(exc)
        return
    try:
        report = gr.verify_ideal_gradation(spec, selection)
    except GradedCstarError as exc:
        assert not str(exc).startswith("product of"), str(exc)
        return
    assert report.max_leak == pytest.approx(want, abs=1e-12)


class TestIdealsAgainstReference:
    @pytest.mark.parametrize(
        "name", ["all-scalar-diamond", "m2-chain", "mixed-diamond", "block-chain"]
    )
    def test_every_block_selection(self, corpus, name):
        spec = corpus[name]
        for selection in block_selections(spec):
            assert_leaks_match_reference(spec, selection)

    @settings(max_examples=15, deadline=None)
    @given(perturbed_specs(), st.randoms(use_true_random=False))
    def test_perturbed_specs(self, spec, random):
        selection = {
            i: {b for b in range(c.nblocks) if random.random() < 0.5}
            for i, c in enumerate(spec.components)
        }
        assert_leaks_match_reference(spec, selection)

    def test_nan_leak_fails(self):
        # block-chain with phi_01(1) = (I_2, nan): the product of the top
        # unit with E0[0,0] at the bottom has nan * 0 in the unselected
        # scalar block. The gmul loop's max(0.0, nan) keeps 0.0.
        spec = block_chain_spec()
        m = spec.phi[(0, 1)].matrix.copy()
        m[4, 0] = np.nan
        spec = gr.GradedSpec(
            spec.L, spec.components,
            {(0, 1): fd.StarHom(spec.components[1], spec.components[0], m)},
        )
        assert ideal_leak_reference(spec, {0: {0}}) == 0.0
        with pytest.raises(gr.NotAnIdeal) as got:
            gr.verify_ideal_gradation(spec, {0: {0}})
        assert str(got.value) == (
            "product of 1:E0[0,0] and 0:E0[0,0] leaves the selected blocks by nan"
        )
