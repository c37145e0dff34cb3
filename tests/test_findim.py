"""Block-matrix arithmetic, the operator norm, and *-homomorphism checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import findim as fd
from gradedcstar.findim import (
    AlgebraShape,
    NotMultiplicative,
    ShapeMismatch,
    StarHom,
)
from gradedcstar.seeding import make_rng


def shape(*blocks):
    return AlgebraShape(blocks)


def unital_embedding_c_to_m2():
    im = fd.unit(shape(2))
    return StarHom.from_images(shape(1), shape(2), [im])


# ------------------------------------------------------------------ shapes

def test_dim_is_computed_once_and_stays_out_of_identity():
    a, b = shape(3, 1, 2), shape(3, 1, 2)
    assert a.dim == 14
    assert "dim" in vars(a) and "dim" not in vars(b)
    # equality, hash and repr still see the blocks alone
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != shape(3, 1) and shape().dim == 0
    with pytest.raises(AttributeError):
        a.blocks = (1,)


# ------------------------------------------------------------- arithmetic

def test_scalar_one_is_identity():
    rng = make_rng(7, 0)
    x = fd.random_element(shape(2, 3), rng)
    y = 1.0 * x
    for a, b in zip(x.mats, y.mats):
        assert np.array_equal(a, b)


def test_adjoint_is_involutive():
    rng = make_rng(7, 1)
    x = fd.random_element(shape(3, 1), rng)
    assert fd.op_norm(fd.adjoint(fd.adjoint(x)) - x) == 0.0


def test_matrix_unit_product():
    s = shape(2)
    e12 = fd.basis_element(s, s.basis_triples().index((0, 0, 1)))
    e21 = fd.basis_element(s, s.basis_triples().index((0, 1, 0)))
    e11 = fd.basis_element(s, 0)
    assert fd.op_norm(fd.mul(e12, e21) - e11) == 0.0


def test_mismatched_shapes_rejected():
    with pytest.raises(ShapeMismatch):
        fd.mul(fd.unit(shape(2)), fd.unit(shape(3)))


def test_vector_round_trip():
    rng = make_rng(7, 2)
    s = shape(2, 1, 3)
    x = fd.random_element(s, rng)
    assert fd.op_norm(fd.from_vector(s, fd.to_vector(x)) - x) == 0.0


def test_basis_ordering_is_block_then_row_major():
    s = shape(2, 1)
    assert s.basis_triples() == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
    ]
    assert s.dim == 5
    assert s.side == 3


# ---------------------------------------------------------------- op_norm

def test_norm_of_unit_is_one():
    assert fd.op_norm(fd.unit(shape(4, 2))) == 1.0


def test_norm_of_scalar_pair_is_max_modulus():
    x = fd.AlgElement(shape(1, 1), [np.array([[3.0]]), np.array([[-4.0j]])])
    assert fd.op_norm(x) == pytest.approx(4.0)


def test_norm_of_nilpotent_jordan_cell():
    x = fd.AlgElement(shape(2), [np.array([[0.0, 2.0], [0.0, 0.0]])])
    assert fd.op_norm(x) == pytest.approx(2.0)


def test_norm_propagates_nan():
    # max(0.0, nan) is 0.0; a NaN block must not read as norm 0
    x = fd.AlgElement(
        shape(1, 1), [np.array([[np.nan]]), np.array([[1.0]])]
    )
    assert np.isnan(fd.op_norm(x))


def test_zero_algebra_has_zero_norm():
    z = fd.zero(AlgebraShape(()))
    assert fd.op_norm(z) == 0.0
    assert fd.to_vector(z).shape == (0,)


# -------------------------------------------------------------- positivity

def test_unit_is_positive():
    assert fd.is_positive(fd.unit(shape(3)))


def test_x_star_x_is_positive():
    rng = make_rng(11, 0)
    for _ in range(5):
        x = fd.random_element(shape(2, 3), rng)
        assert fd.is_positive(fd.mul(fd.adjoint(x), x))


def test_indefinite_diagonal_is_not_positive():
    x = fd.AlgElement(shape(2), [np.diag([1.0, -1.0]).astype(complex)])
    assert not fd.is_positive(x)


# ------------------------------------------------------ starhom validation

def test_identity_hom_validates_with_zero_residual():
    rep = fd.validate_starhom(fd.identity_hom(shape(2, 3)))
    assert rep.max_mult_residual == 0.0
    assert rep.max_star_residual == 0.0


def test_unital_scalar_embedding_validates():
    h = unital_embedding_c_to_m2()
    fd.validate_starhom(h)
    assert fd.is_unital_hom(h)


def test_doubling_map_is_not_multiplicative():
    h = StarHom(shape(1), shape(1), np.array([[2.0]]))
    with pytest.raises(NotMultiplicative):
        fd.validate_starhom(h)


def test_swap_blocks_is_a_star_hom():
    s = shape(2, 2)
    images = []
    for k, p, q in s.basis_triples():
        im = fd.zero(s)
        im.mats[1 - k][p, q] = 1.0
        images.append(im)
    fd.validate_starhom(StarHom.from_images(s, s, images))


# --------------------------------------------------------- ranks, compose

def test_identity_ranks():
    h = fd.identity_hom(shape(2, 1))
    assert fd.kernel_dim(h) == 0
    assert fd.rank(h.matrix) == 5


def test_zero_map_kernel_is_everything():
    h = fd.zero_hom(shape(2), shape(3))
    assert fd.kernel_dim(h) == 4
    assert fd.rank(h.matrix) == 0


def test_scalar_embedding_ranks():
    h = unital_embedding_c_to_m2()
    assert fd.kernel_dim(h) == 0
    assert fd.rank(h.matrix) == 1


def test_compose_requires_matching_shapes():
    h = unital_embedding_c_to_m2()
    with pytest.raises(ShapeMismatch):
        fd.compose(h, h)
    ident = fd.identity_hom(shape(2))
    g = fd.compose(ident, h)
    assert g.source == shape(1)
    assert g.target == shape(2)


# ------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 2**31 - 1),
)
def test_cstar_identity_and_friends(blocks, seed):
    s = AlgebraShape(blocks)
    rng = make_rng(seed, 3)
    x = fd.random_element(s, rng)
    y = fd.random_element(s, rng)
    nx = fd.op_norm(x)
    assert abs(fd.op_norm(fd.mul(fd.adjoint(x), x)) - nx * nx) <= 1e-8 * (1 + nx * nx)
    assert fd.op_norm(fd.mul(x, y)) <= nx * fd.op_norm(y) + 1e-9
    assert abs(fd.op_norm(fd.adjoint(x)) - nx) <= 1e-10


def _sample_homs():
    rng = make_rng(2024, 4)
    s2 = shape(2)
    # unitary conjugation on M_2
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    conj_images = []
    for a in range(s2.dim):
        e = fd.basis_element(s2, a)
        conj_images.append(fd.AlgElement(s2, [u @ e.mats[0] @ u.conj().T]))
    conj = StarHom.from_images(s2, s2, conj_images)
    # diagonal doubling M_2 -> M_2 + M_2
    s22 = shape(2, 2)
    dbl_images = []
    for a in range(s2.dim):
        e = fd.basis_element(s2, a)
        dbl_images.append(fd.AlgElement(s22, [e.mats[0], e.mats[0]]))
    doubling = StarHom.from_images(s2, s22, dbl_images)
    # coordinate projection M_2 + M_3 -> M_2
    s23 = shape(2, 3)
    proj_images = []
    for k, p, q in s23.basis_triples():
        im = fd.zero(s2)
        if k == 0:
            im.mats[0][p, q] = 1.0
        proj_images.append(im)
    proj = StarHom.from_images(s23, s2, proj_images)
    return [unital_embedding_c_to_m2(), conj, doubling, proj]


def test_validated_homs_are_contractive_on_samples():
    rng = make_rng(5, 5)
    for h in _sample_homs():
        fd.validate_starhom(h)
        for _ in range(20):
            x = fd.random_element(h.source, rng)
            assert fd.op_norm(h.apply(x)) <= fd.op_norm(x) + 1e-7


def test_injective_validated_homs_are_isometric_on_samples():
    rng = make_rng(5, 6)
    for h in _sample_homs():
        if fd.kernel_dim(h) != 0:
            continue
        for _ in range(20):
            x = fd.random_element(h.source, rng)
            assert abs(fd.op_norm(h.apply(x)) - fd.op_norm(x)) <= 1e-7


def test_projection_is_not_isometric_off_its_block():
    proj = _sample_homs()[3]
    x = fd.zero(proj.source)
    x.mats[1][0, 0] = 1.0
    assert fd.op_norm(x) == 1.0
    assert fd.op_norm(proj.apply(x)) == 0.0
    assert fd.kernel_dim(proj) == 9


# ----------------------------------------------------------- pair products

block_lists = st.lists(st.integers(1, 3), min_size=0, max_size=3)


@settings(max_examples=60, deadline=None)
@given(block_lists, block_lists, block_lists, st.integers(0, 2), st.integers(0, 2**31 - 1))
def test_pair_products_match_per_pair_products(tb, ab, bb, stack, seed):
    target, sa, sb = AlgebraShape(tb), AlgebraShape(ab), AlgebraShape(bb)
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()

    def maps(source):
        size = lead + (target.dim, source.dim)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    gm, hm = maps(sa), maps(sb)
    got = fd.pair_products(target, gm, hm)
    assert got.shape == lead + (sa.dim, sb.dim, target.dim)
    for s in range(stack) if stack else [None]:
        g = StarHom(sa, target, gm if s is None else gm[s])
        h = StarHom(sb, target, hm if s is None else hm[s])
        tensor = got if s is None else got[s]
        for a in range(sa.dim):
            for b in range(sb.dim):
                want = fd.to_vector(fd.mul(g.image_of_basis(a), h.image_of_basis(b)))
                assert np.allclose(tensor[a, b], want, atol=1e-12)


def test_unit_products_is_the_product_table():
    s = shape(2, 1, 3)
    a, b, c = fd.unit_products(s)
    table = {(int(x), int(y)): int(z) for x, y, z in zip(a, b, c)}
    for x in range(s.dim):
        for y in range(s.dim):
            prod = fd.to_vector(fd.mul(fd.basis_element(s, x), fd.basis_element(s, y)))
            if (x, y) in table:
                assert np.array_equal(prod, fd.to_vector(fd.basis_element(s, table[(x, y)])))
            else:
                assert not prod.any()


def test_stacked_residuals_match_single_maps():
    homs = _sample_homs()
    conj = homs[1]
    broken = StarHom(conj.source, conj.target, conj.matrix + 1e-3)
    stack = np.stack([conj.matrix, broken.matrix, fd.identity_hom(conj.source).matrix])
    star, mult = fd.starhom_residuals(conj.source, conj.target, stack)
    for n in range(3):
        single = fd.starhom_residuals(conj.source, conj.target, stack[n])
        assert np.allclose(star[n], single[0], rtol=0, atol=1e-14)
        assert np.allclose(mult[n], single[1], rtol=0, atol=1e-14)
    assert fd.check_starhom_residuals(conj.source, star[0], mult[0]).max_mult_residual <= 1e-12
    with pytest.raises(NotMultiplicative):
        fd.check_starhom_residuals(conj.source, star[1], mult[1])


def test_nan_map_is_not_a_star_hom():
    h = StarHom(shape(1), shape(1), np.array([[np.nan]]))
    with pytest.raises(fd.NotStarPreserving):
        fd.validate_starhom(h)


def test_maxabs_propagates_nan_and_handles_empty():
    assert fd.maxabs(np.zeros((0, 3))) == 0.0
    assert fd.maxabs([1.0, -3.0j]) == 3.0
    assert np.isnan(fd.maxabs([0.0, np.nan, 5.0]))


def test_rank_helper():
    assert fd.rank(np.zeros((0, 4))) == 0
    assert fd.rank(np.zeros((3, 3))) == 0
    assert fd.rank(np.diag([1.0, 1e-12, 2.0])) == 2
    assert fd.rank(np.diag([1.0, 1e-12, 2.0]), rtol=1e-14) == 3


def oracle_starhom_failure(h, tol=fd.BASIS_TOL):
    """Element-by-element loop: (exception type, what it names) of the
    first failure, star check over all elements before the product check."""
    s = h.source
    triples = s.basis_triples()
    index = {t: a for a, t in enumerate(triples)}
    for a, (k, p, q) in enumerate(triples):
        r = fd.frob_norm(h.image_of_basis(index[(k, q, p)]) - fd.adjoint(h.image_of_basis(a)))
        if not r <= tol:
            return fd.NotStarPreserving, s.basis_label(a)
    for a in range(s.dim):
        for b in range(s.dim):
            want = h.apply(fd.mul(fd.basis_element(s, a), fd.basis_element(s, b)))
            got = fd.mul(h.image_of_basis(a), h.image_of_basis(b))
            if not fd.frob_norm(got - want) <= tol:
                return NotMultiplicative, (s.basis_label(a), s.basis_label(b))
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 1e-3, 1.0, 1j, np.nan]),
)
def test_validate_starhom_matches_the_element_loop(blocks, seed, bump):
    # block-diagonal doubling x -> (x, x) into a shape with an extra block,
    # then one matrix entry bumped
    s = AlgebraShape(blocks)
    t = AlgebraShape(blocks + blocks)
    images = [fd.AlgElement(t, 2 * fd.basis_element(s, a).mats) for a in range(s.dim)]
    m = StarHom.from_images(s, t, images).matrix.copy()
    rng = np.random.default_rng(seed)
    m[rng.integers(t.dim), rng.integers(s.dim)] += bump
    h = StarHom(s, t, m)
    want = oracle_starhom_failure(h)
    if want is None:
        rep = fd.validate_starhom(h)
        assert rep.max_mult_residual <= fd.BASIS_TOL
        return
    with pytest.raises(want[0]) as info:
        fd.validate_starhom(h)
    named = info.value.label if want[0] is fd.NotStarPreserving else info.value.pair
    assert named == want[1]
