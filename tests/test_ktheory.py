"""Block-structure recovery and the integer rank-map certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import InputError, ValidationFailure

from conftest import M2, all_scalar_spec, block_chain_spec, m2_chain_spec, \
    mixed_diamond_spec, standard_corpus
from element_references import (
    NotUnimodular,
    integer_det,
    k0_matrix_reference,
    verify_k0_reference,
)
from seeded_wedderburn import assert_matches_oracle
from test_products import tensor

M3 = fd.AlgebraShape([3])
M23 = fd.AlgebraShape([2, 3])


def full_basis(shape):
    return [fd.basis_element(shape, a) for a in range(shape.dim)]


def faithful_span(spec):
    return [
        gr.faithful_image(spec, spec.basis_element(i, a))
        for i, a, _ in spec.graded_basis()
    ]


def amb(x):
    return fd.embed_ambient(x)


class TestWedderburn:
    def test_full_matrix_algebra_is_one_block(self):
        data = kt.wedderburn(full_basis(M3))
        assert data.block_dims == [3]
        assert data.multiplicities == [1]
        assert data.span_dim == 9
        assert fd.op_norm(data.unit - fd.unit(M3)) <= 1e-7

    def test_full_two_block_shape_recovers_shape(self):
        data = kt.wedderburn(full_basis(M23))
        assert data.block_dims == [2, 3]
        assert data.multiplicities == [1, 1]
        assert data.shape == M23

    def test_diagonal_span_gives_scalar_blocks(self):
        shape = fd.AlgebraShape([4])
        basis = []
        for p in range(4):
            x = fd.zero(shape)
            x.mats[0][p, p] = 1.0
            basis.append(x)
        data = kt.wedderburn(basis)
        assert data.block_dims == [1, 1, 1, 1]
        assert data.span_dim == 4

    def test_chain_total_algebra_blocks(self):
        # the faithful images (x, 0) for x over M_2 together with (1, 1)
        # generate every pair (m, c): the span is the whole ambient
        # M_2 + scalars, so its block list is the ambient's own
        spec = m2_chain_spec()
        data = kt.wedderburn(faithful_span(spec))
        assert data.block_dims == [2, 1]
        assert data.multiplicities == [1, 1]
        assert data.span_dim == 5

    def test_redundant_spanning_set_accepted(self, rng):
        basis = full_basis(M2)
        extra = [fd.unit(M2), basis[0] + 2.0 * basis[3]]
        data = kt.wedderburn(basis + extra)
        assert data.block_dims == [2]
        assert data.span_dim == 4

    def test_multiplicity_of_a_repeated_block(self):
        # M_2 embedded diagonally into a two-block ambient: one block of
        # side 2 seen with multiplicity 2
        shape = fd.AlgebraShape([2, 2])
        basis = [
            fd.AlgElement(shape, [b.mats[0], b.mats[0]]) for b in full_basis(M2)
        ]
        data = kt.wedderburn(basis)
        assert data.block_dims == [2]
        assert data.multiplicities == [2]
        assert data.span_dim == 4
        assert fd.op_norm(data.unit - fd.unit(shape)) <= 1e-7

    def test_unit_of_a_degenerately_acting_span(self):
        # span of a single corner projection: its own unit is that
        # projection, not the ambient identity
        e00 = fd.basis_element(M2, 0)
        data = kt.wedderburn([e00])
        assert data.block_dims == [1]
        assert data.multiplicities == [1]
        assert fd.op_norm(data.unit - e00) <= 1e-7

    def test_rejects_star_leak(self):
        with pytest.raises(kt.NotStarClosed):
            kt.wedderburn([fd.basis_element(M2, 1)])

    def test_rejects_product_leak(self):
        # {E01, E10} is star-closed but E01 E10 leaves the span
        with pytest.raises(kt.NotMultiplicativelyClosed):
            kt.wedderburn([fd.basis_element(M2, 1), fd.basis_element(M2, 2)])

    def test_rejects_empty_or_zero_spans(self):
        with pytest.raises(InputError):
            kt.wedderburn([])
        with pytest.raises(InputError):
            kt.wedderburn([fd.zero(M2)])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(fd.ShapeMismatch):
            kt.wedderburn([fd.unit(M2), fd.unit(M3)])

    def test_block_squares_sum_to_span_dim(self):
        for basis in (full_basis(M23), faithful_span(m2_chain_spec())):
            data = kt.wedderburn(basis)
            assert sum(n * n for n in data.block_dims) == data.span_dim

    def test_central_projection_invariants(self, rng):
        data = kt.wedderburn(full_basis(M23))
        ps = [amb(p) for p in data.central_projections]
        for p in ps:
            assert np.linalg.norm(p @ p - p) <= 1e-7
            assert np.linalg.norm(p - p.conj().T) <= 1e-7
            x = amb(fd.random_element(M23, rng))
            assert np.linalg.norm(p @ x - x @ p) <= 1e-6
        assert np.linalg.norm(ps[0] @ ps[1]) <= 1e-7
        assert np.linalg.norm(sum(ps) - amb(data.unit)) <= 1e-7

    def test_coordinates_are_a_star_isomorphism(self, rng):
        data = kt.wedderburn(full_basis(M23))
        x = fd.random_element(M23, rng)
        y = fd.random_element(M23, rng)
        cx, cy = data.coordinates(x), data.coordinates(y)
        assert fd.op_norm(data.coordinates(x * y) - cx * cy) <= 1e-6
        assert fd.op_norm(data.coordinates(fd.adjoint(x)) - fd.adjoint(cx)) <= 1e-6
        assert fd.op_norm(data.reconstruct(cx) - x) <= 1e-6

    def test_coordinates_roundtrip_with_multiplicity(self, rng):
        shape = fd.AlgebraShape([2, 2])
        basis = [
            fd.AlgElement(shape, [b.mats[0], b.mats[0]]) for b in full_basis(M2)
        ]
        data = kt.wedderburn(basis)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = fd.AlgElement(shape, [m, m])
        assert fd.op_norm(data.reconstruct(data.coordinates(x)) - x) <= 1e-6

    def test_projection_ranks_in_each_block(self):
        data = kt.wedderburn(full_basis(M23))
        assert data.projection_ranks(fd.basis_element(M23, 0)) == [1, 0]
        assert data.projection_ranks(fd.unit(M23)) == [2, 3]

    def test_projection_ranks_divide_out_multiplicity(self):
        shape = fd.AlgebraShape([2, 2])
        basis = [
            fd.AlgElement(shape, [b.mats[0], b.mats[0]]) for b in full_basis(M2)
        ]
        data = kt.wedderburn(basis)
        e00 = np.zeros((2, 2), dtype=complex)
        e00[0, 0] = 1.0
        assert data.projection_ranks(fd.AlgElement(shape, [e00, e00])) == [1]

    def test_non_integral_trace_rejected(self):
        data = kt.wedderburn(full_basis(M3))
        with pytest.raises(kt.NonIntegralBlock):
            data.projection_ranks(fd.scale(0.5, fd.unit(M3)))

    def test_deterministic(self):
        a = kt.wedderburn(full_basis(M23))
        b = kt.wedderburn(full_basis(M23))
        assert a.block_dims == b.block_dims
        for ua, ub in zip(a.matrix_units, b.matrix_units):
            assert np.array_equal(ua, ub)

    def test_matches_the_seeded_oracle(self):
        # block dimensions, multiplicities and minimal central projections
        # do not depend on any choice, so the random route must agree
        basis = full_basis(M23)
        for seed in (7, 8):
            assert_matches_oracle(kt.wedderburn(basis), basis, seed)

    def test_matches_the_seeded_oracle_on_the_corpus(self, corpus):
        for spec in corpus.values():
            basis = faithful_span(spec)
            assert_matches_oracle(kt.wedderburn(basis), basis)

    def test_unsplittable_spectrum_is_a_decomposition_error(self, monkeypatch):
        monkeypatch.setattr(kt, "EIG_SEPARATION", float("inf"))
        with pytest.raises(kt.DecompositionError):
            kt.wedderburn(full_basis(M23))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spanning_sets(self, bad):
        basis = full_basis(M23)
        basis[3].mats[1][0, 2] = bad
        with pytest.raises(InputError, match="non-finite"):
            kt.wedderburn(basis)

    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3
        ),
        kernel=st.integers(0, 2),
        spanning=st.sampled_from(["basis", "mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recovers_conjugated_block_algebras(self, blocks, kernel, spanning, seed):
        # the span of (+)_c M_n_c (x) 1_m_c (+) 0_kernel, conjugated by a
        # random unitary: blocks, multiplicities and coordinates must come
        # back, and agree with the oracle
        rng = np.random.default_rng(seed)
        side = sum(n * m for n, m in blocks) + kernel
        z = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        u, _ = np.linalg.qr(z)
        mats = []
        at = 0
        for n, m in blocks:
            for a in range(n * n):
                e = np.zeros((n, n))
                e.flat[a] = 1.0
                x = np.zeros((side, side), dtype=complex)
                x[at : at + n * m, at : at + n * m] = np.kron(e, np.eye(m))
                mats.append(u @ x @ u.conj().T)
            at += n * m
        if spanning == "mixed":
            # random combinations, one more than the dimension
            coeff = rng.standard_normal((len(mats) + 1, len(mats)))
            mats = list(np.einsum("kc,cuv->kuv", coeff, np.asarray(mats)))
        shape = fd.AlgebraShape([side])
        basis = [fd.AlgElement(shape, [x]) for x in mats]
        data = kt.wedderburn(basis)
        assert sorted(zip(data.block_dims, data.multiplicities)) == sorted(blocks)
        assert_matches_oracle(data, basis)
        coeff = rng.standard_normal(len(mats))
        x = fd.AlgElement(shape, [np.einsum("k,kuv->uv", coeff, np.asarray(mats))])
        y = fd.AlgElement(shape, [mats[0]])
        cx, cy = data.coordinates(x), data.coordinates(y)
        assert fd.op_norm(data.coordinates(x * y) - cx * cy) <= 1e-6
        assert fd.op_norm(data.coordinates(fd.adjoint(x)) - fd.adjoint(cx)) <= 1e-6
        assert fd.op_norm(data.reconstruct(cx) - x) <= 1e-6


class TestIntegerDet:
    def test_frozen_values(self):
        assert integer_det([[1, 0], [2, 1]]) == 1
        assert integer_det([[0, 1], [1, 0]]) == -1
        assert integer_det([[1, 2], [2, 4]]) == 0
        assert integer_det([[3]]) == 3
        assert integer_det([]) == 1

    def test_pivot_swap_case(self):
        assert integer_det([[0, 2], [3, 0]]) == -6

    def test_matches_float_determinant(self):
        m = [[2, 1, 0, 3], [1, 1, 4, 0], [0, 2, 1, 1], [3, 0, 0, 2]]
        assert integer_det(m) == round(np.linalg.det(np.asarray(m)))


class TestVerifyK0:
    def test_single_matrix_component(self):
        spec = gr.GradedSpec(sl.chain(1), [M3], {})
        report = kt.verify_k0(spec)
        assert report.per_component_ranks == [1]
        assert report.total_rank == 1
        assert report.phi_matrix == [[1]]
        assert report.unimodular
        assert report.k1_total_rank == 0

    def test_all_scalar_diamond(self):
        report = kt.verify_k0(all_scalar_spec(sl.diamond()))
        assert report.per_component_ranks == [1, 1, 1, 1]
        assert report.total_rank == 4
        assert report.unimodular

    def test_chain_rank_matrix_frozen(self):
        # bottom minimal projection images to (E00, 0): ranks (1, 0);
        # the top unit images to (identity, 1): ranks (2, 1)
        report = kt.verify_k0(m2_chain_spec())
        assert report.per_component_ranks == [1, 1]
        assert report.total_rank == 2
        assert report.phi_matrix == [[1, 0], [2, 1]]
        assert report.unimodular

    def test_two_block_bottom_rank_matrix(self):
        # same rank count as above, block by block: the bottom's M_2 and
        # scalar blocks map to (1,0,0) and (0,1,0), the top unit (whose
        # image is the bottom unit plus its own coordinate) to (2,1,1)
        report = kt.verify_k0(block_chain_spec())
        assert report.per_component_ranks == [2, 1]
        assert report.total_rank == 3
        assert report.phi_matrix == [[1, 0, 0], [0, 1, 0], [2, 1, 1]]
        assert report.unimodular

    def test_noncommutative_diamond(self):
        report = kt.verify_k0(mixed_diamond_spec())
        assert report.per_component_ranks == [1, 1, 1, 1]
        assert report.total_rank == 4
        assert report.unimodular

    def test_scalar_chains_and_antichain(self):
        for L in (sl.chain(4), sl.antichain_with_bottom(3)):
            report = kt.verify_k0(all_scalar_spec(L))
            assert report.total_rank == sum(report.per_component_ranks)
            assert report.unimodular

    def test_unimodularity_guard_fires(self):
        # deliberately invalid spec: phi_00 = 2 id doubles every trace on
        # the diagonal, so the generator matrix is [[2]]. verify_k0
        # validates first and refuses it at axiom (a); the element route
        # takes no verdict and finds the determinant 2
        scalar = fd.AlgebraShape([1])
        twice = fd.StarHom(scalar, scalar, np.array([[2.0]]))
        spec = gr.GradedSpec(sl.chain(1), [scalar], {(0, 0): twice})
        with pytest.raises(gr.AxiomAViolation):
            kt.verify_k0(spec)
        with pytest.raises(NotUnimodular, match="determinant 2,"):
            verify_k0_reference(spec)

    def test_non_finite_trace_is_non_integral(self):
        scalar = fd.AlgebraShape([1])
        bad = fd.StarHom(scalar, scalar, np.array([[np.nan]]))
        spec = gr.GradedSpec(sl.chain(2), [scalar, scalar], {(0, 1): bad})
        with pytest.raises(gr.HomNotStar):
            kt.verify_k0(spec)
        with pytest.raises(kt.NonIntegralBlock):
            verify_k0_reference(spec)

    def test_validates_only_without_a_verdict(self, monkeypatch):
        calls = []
        real = gr.validate_spec

        def validate_spec(spec, tol=gr.AXIOM_TOL):
            calls.append(tol)
            return real(spec, tol)

        monkeypatch.setattr(gr, "validate_spec", validate_spec)
        spec = m2_chain_spec()
        kt.verify_k0(spec)
        assert calls == [gr.AXIOM_TOL]
        kt.verify_k0(spec)
        assert calls == [gr.AXIOM_TOL]
        loose = m2_chain_spec()
        real(loose, 1e-6)
        kt.verify_k0(loose)
        assert calls == [gr.AXIOM_TOL] * 2

    def test_coset_z4_tensor_square(self):
        # 49 blocks, the largest generator matrix in the suite
        z4 = wb.demo_spec("coset-z4")
        report = kt.verify_k0(tensor(z4, z4))
        assert report.total_rank == 49
        assert report.unimodular
        assert len(report.phi_matrix) == 49


# ------------------------------------- verify_k0 against the element route

def _product_specs():
    corpus = standard_corpus()
    _, z4_act = wb.build_coset_spec(*wb.coset_z4_family())
    return {
        **corpus,
        "tensor-a": tensor(corpus["m2-chain"], corpus["all-scalar-chain2"]),
        "tensor-b": tensor(
            corpus["all-scalar-diamond"], corpus["all-scalar-chain2"]
        ),
        "crossed-trivial": pr.crossed_product(
            pr.trivial_action(pr.cyclic_group(2), corpus["m2-chain"])
        ),
        "crossed-coset": pr.crossed_product(z4_act),
    }


K0_SPECS = _product_specs()

# per-map factors: unchanged, doubled, halved (non-integral traces), zero,
# just inside and just outside RANK_ROUND_TOL
K0_SCALES = (1.0, 1.0, 2.0, 0.5, 0.0, 1 + 1e-9, 1 + 1e-5)


def with_maps(spec, maps):
    phi = dict(spec.phi)
    phi.update(
        {key: fd.StarHom(spec.phi[key].source, spec.phi[key].target, m) for key, m in maps.items()}
    )
    return gr.GradedSpec(spec.L, spec.components, phi)


@st.composite
def scaled_specs(draw):
    """A K0_SPECS entry with every structure map, phi_{i,i} included,
    scaled by a factor drawn from K0_SCALES."""
    spec = K0_SPECS[draw(st.sampled_from(sorted(K0_SPECS)))]
    keys = sorted(spec.phi)
    factors = draw(st.lists(st.sampled_from(K0_SCALES), min_size=len(keys), max_size=len(keys)))
    return with_maps(spec, {k: f * spec.phi[k].matrix for k, f in zip(keys, factors) if f != 1.0})


@st.composite
def non_finite_specs(draw):
    """A K0_SPECS entry with one to three entries of its structure maps
    set to NaN or an infinity, or given an infinite imaginary part."""
    spec = K0_SPECS[draw(st.sampled_from(sorted(K0_SPECS)))]
    keys = sorted(spec.phi)
    maps = {}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        m = maps.setdefault(key, spec.phi[key].matrix.copy())
        r = draw(st.integers(0, m.shape[0] - 1))
        c = draw(st.integers(0, m.shape[1] - 1))
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, "imaginary inf"]))
        m[r, c] = complex(m[r, c].real, np.inf) if bad == "imaginary inf" else bad
    return with_maps(spec, maps)


def traced_entries(spec):
    """For every generator (i, b) and ambient block (t, c), row-major: the
    label the messages use, the block's position, and the pi rows and
    column whose sum is the entry."""
    out = []
    for i, ci in enumerate(spec.components):
        for b, off in enumerate(ci.block_offsets()):
            col = spec.offsets[i] + off
            c = 0
            for t, ct in enumerate(spec.components):
                for d, toff in zip(ct.blocks, ct.block_offsets()):
                    rows = spec.offsets[t] + toff + np.arange(d) * (d + 1)
                    out.append((f"({spec.L.names[i]}, {b})", c, rows, col))
                    c += 1
    return out


def with_verdict(spec):
    """spec with a verdict on record that no validate_spec gave it, so that
    verify_k0 goes straight to its gather."""
    spec.validated_tol = gr.AXIOM_TOL
    return spec


def refused_as_validation_refuses(spec):
    """Whether validate_spec refuses a verdict-free copy of spec; if it
    does, verify_k0 raises the same exception with the same message."""
    try:
        gr.validate_spec(gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi))
    except ValidationFailure as exc:
        with pytest.raises(type(exc)) as got:
            kt.verify_k0(spec)
        assert str(got.value) == str(exc)
        return True
    return False


def assert_same_as_reference(spec, reference_spec=None):
    try:
        want = verify_k0_reference(reference_spec or spec)
    except (kt.NonIntegralBlock, NotUnimodular) as exc:
        with pytest.raises(type(exc)) as got:
            kt.verify_k0(spec)
        assert str(got.value) == str(exc)
        return
    assert kt.verify_k0(spec) == want


def assert_det_is_per_index_product(spec):
    m = k0_matrix_reference(spec)
    det, lo = 1, 0
    for c in spec.components:
        n = c.nblocks
        det *= integer_det([row[lo : lo + n] for row in m[lo : lo + n]])
        lo += n
    assert integer_det(m) == det


def assert_unimodular(spec):
    """On a validated spec the full elimination finds determinant 1, as
    verify_k0's docstring proves."""
    assert integer_det(k0_matrix_reference(spec)) == 1


class TestVerifyK0AgainstElementRoute:
    @pytest.mark.parametrize("name", sorted(K0_SPECS))
    def test_same_report(self, name):
        assert_same_as_reference(K0_SPECS[name])
        assert_det_is_per_index_product(K0_SPECS[name])
        assert_unimodular(K0_SPECS[name])

    @settings(max_examples=80, deadline=None)
    @given(scaled_specs())
    def test_same_report_or_error_on_scaled_maps(self, spec):
        # verify_k0 refuses what validation refuses; on the rest it agrees
        # with the element route, whose determinant is then 1
        if not refused_as_validation_refuses(spec):
            assert_same_as_reference(spec)
            assert_unimodular(spec)
        try:
            assert_det_is_per_index_product(spec)
        except kt.NonIntegralBlock:
            pass

    # the element route's pi @ x warns where it spreads a non-finite entry
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(non_finite_specs())
    def test_non_finite_entries_fail_only_where_traced(self, spec):
        # Validation refuses every non-finite entry. Past a verdict on
        # record, the element route takes pi @ x, where a non-finite entry
        # anywhere in a traced row spreads through inf * 0 and nan * 0;
        # the gather reads only the traced entries themselves, both of
        # their parts.
        assert refused_as_validation_refuses(spec)
        spec = with_verdict(spec)
        pi = spec.pi
        for label, c, rows, col in traced_entries(spec):
            if not np.isfinite(pi[rows, col]).all():
                with pytest.raises(kt.NonIntegralBlock) as got:
                    kt.verify_k0(spec)
                assert str(got.value).startswith(
                    f"trace of block {c} of the image of generator {label} "
                )
                with pytest.raises(kt.NonIntegralBlock):
                    verify_k0_reference(spec)
                return
        # untraced entries do not matter: zero them and ask the reference
        finite = with_maps(
            spec, {k: np.nan_to_num(h.matrix, nan=0.0, posinf=0.0, neginf=0.0) for k, h in spec.phi.items()}
        )
        assert_same_as_reference(spec, finite)

    def test_imaginary_trace_is_not_integral(self):
        # phi_00 of the M_2 chain sends E00 to (0 + inf i) E00: its real
        # part alone would read as a zero trace and a determinant of 0
        spec = m2_chain_spec()
        m = spec.phi[(0, 0)].matrix.copy()
        m[0, 0] = complex(0.0, np.inf)
        spec = with_maps(spec, {(0, 0): m})
        with pytest.raises(gr.AxiomAViolation):
            kt.verify_k0(spec)
        with pytest.raises(kt.NonIntegralBlock) as got:
            kt.verify_k0(with_verdict(spec))
        assert str(got.value) == (
            f"trace of block 0 of the image of generator ({spec.L.names[0]}, 0) "
            f"infj is not within {kt.RANK_ROUND_TOL} of an integer"
        )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_off_the_generator_column_is_not_read(self):
        # phi_00 of the M_2 chain with a NaN at (E00, E01): a traced row,
        # an untraced column. The element route's trace is nan * 0.
        spec = m2_chain_spec()
        m = spec.phi[(0, 0)].matrix.copy()
        m[0, 1] = np.nan
        spec = with_maps(spec, {(0, 0): m})
        with pytest.raises(gr.AxiomAViolation):
            kt.verify_k0(spec)
        assert kt.verify_k0(with_verdict(spec)).phi_matrix == [[1, 0], [2, 1]]
        with pytest.raises(kt.NonIntegralBlock, match="nan"):
            verify_k0_reference(spec)

    def test_determinant_equals_full_elimination(self):
        # generator matrices with off-diagonal blocks below the diagonal
        # and non-unit diagonal blocks
        for name in ("tensor-a", "crossed-coset", "mixed-diamond"):
            spec = K0_SPECS[name]
            doubled = with_maps(spec, {(0, 0): 2 * spec.phi[(0, 0)].matrix})
            assert_det_is_per_index_product(doubled)
            with pytest.raises(gr.AxiomAViolation):
                kt.verify_k0(doubled)
            with pytest.raises(NotUnimodular) as got:
                verify_k0_reference(doubled)
            det = integer_det(k0_matrix_reference(doubled))
            assert str(got.value) == f"rank matrix has determinant {det}, not +-1"

    def test_zero_components_give_the_empty_matrix(self):
        zero = fd.AlgebraShape(())
        L = sl.chain(3)
        phi = {pair: fd.zero_hom(zero, zero) for pair in L.comparable_pairs()}
        spec = gr.GradedSpec(L, [zero] * 3, phi)
        report = kt.verify_k0(spec)
        assert report == verify_k0_reference(spec)
        assert report.phi_matrix == []
        assert report.per_component_ranks == [0, 0, 0]
        assert report.total_rank == 0
        assert report.unimodular
        assert integer_det(report.phi_matrix) == 1
