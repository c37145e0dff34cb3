"""Block-structure recovery and the integer rank-map certificate."""

import numpy as np
import pytest

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import DegenerateGenerator, InputError

from conftest import M2, all_scalar_spec, block_chain_spec, m2_chain_spec, \
    mixed_diamond_spec

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

    def test_deterministic_for_a_fixed_seed(self):
        a = kt.wedderburn(full_basis(M23), seed=7)
        b = kt.wedderburn(full_basis(M23), seed=7)
        assert a.block_dims == b.block_dims
        for ua, ub in zip(a.matrix_units, b.matrix_units):
            assert np.array_equal(ua, ub)

    def test_projections_stable_across_seeds(self):
        # the minimal central projections are canonical, so different
        # draws must land on the same matrices in the same order
        a = kt.wedderburn(full_basis(M23), seed=7)
        b = kt.wedderburn(full_basis(M23), seed=8)
        assert a.block_dims == b.block_dims
        for pa, pb in zip(a.central_projections, b.central_projections):
            assert fd.op_norm(pa - pb) <= 1e-7

    def test_retry_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(kt, "EIG_SEPARATION", float("inf"))
        with pytest.raises(DegenerateGenerator):
            kt.wedderburn(full_basis(M23))


class TestIntegerDet:
    def test_frozen_values(self):
        assert kt._integer_det([[1, 0], [2, 1]]) == 1
        assert kt._integer_det([[0, 1], [1, 0]]) == -1
        assert kt._integer_det([[1, 2], [2, 4]]) == 0
        assert kt._integer_det([[3]]) == 3
        assert kt._integer_det([]) == 1

    def test_pivot_swap_case(self):
        assert kt._integer_det([[0, 2], [3, 0]]) == -6

    def test_matches_float_determinant(self):
        m = [[2, 1, 0, 3], [1, 1, 4, 0], [0, 2, 1, 1], [3, 0, 0, 2]]
        assert kt._integer_det(m) == round(np.linalg.det(np.asarray(m)))


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
        # the diagonal, so the generator matrix is [[2]]
        scalar = fd.AlgebraShape([1])
        twice = fd.StarHom(scalar, scalar, np.array([[2.0]]))
        spec = gr.GradedSpec(sl.chain(1), [scalar], {(0, 0): twice})
        with pytest.raises(kt.NotUnimodular):
            kt.verify_k0(spec)

    def test_non_finite_trace_is_non_integral(self):
        scalar = fd.AlgebraShape([1])
        bad = fd.StarHom(scalar, scalar, np.array([[np.nan]]))
        spec = gr.GradedSpec(sl.chain(2), [scalar, scalar], {(0, 1): bad})
        with pytest.raises(kt.NonIntegralBlock):
            kt.verify_k0(spec)

    def test_coset_z4_tensor_square(self):
        # 49 blocks, the largest generator matrix in the suite
        z4 = wb.demo_spec("coset-z4")
        report = kt.verify_k0(pr.tensor_spec(z4, z4))
        assert report.total_rank == 49
        assert report.unimodular
        assert len(report.phi_matrix) == 49
