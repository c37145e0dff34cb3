"""Exact messages of the basis-pair checks on deliberately broken inputs.

Each check scans basis elements or pairs in a fixed order and raises on the
first one past tolerance; the messages name that element or pair and its
residual. Inputs are chosen so that every residual is exact.
"""

import numpy as np
import pytest

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import semilattice as sl

from conftest import M2, SCALAR, unital_embedding


def adjoint_action(shape, u):
    """x -> u x u* on a one-block shape."""
    images = []
    for a in range(shape.dim):
        e = fd.basis_element(shape, a)
        images.append(fd.AlgElement(shape, [u @ e.mats[0] @ u.conj().T]))
    return fd.StarHom.from_images(shape, shape, images)


def transpose_map(shape):
    """x -> x^T blockwise: *-preserving, anti-multiplicative."""
    images = []
    for a in range(shape.dim):
        e = fd.basis_element(shape, a)
        images.append(fd.AlgElement(shape, [m.T for m in e.mats]))
    return fd.StarHom.from_images(shape, shape, images)


SIGN = adjoint_action(M2, np.diag([1.0, -1.0]).astype(complex))
SWAP = adjoint_action(M2, np.array([[0, 1], [1, 0]], dtype=complex))


def raised(exc_type, fn):
    with pytest.raises(exc_type) as info:
        fn()
    return str(info.value)


# ------------------------------------------------------------ starhom

def test_not_star_preserving_names_first_element():
    s = fd.AlgebraShape([1, 2])
    m = np.eye(s.dim, dtype=complex)
    m[3, 3] = 2.0  # h(E1[1,0]) = 2 E1[1,0]
    h = fd.StarHom(s, s, m)
    assert raised(fd.NotStarPreserving, lambda: fd.validate_starhom(h)) == (
        "h(x*) != h(x)* at basis element E1[0,1], residual 1.000e+00"
    )


def test_not_multiplicative_names_first_pair():
    s = fd.AlgebraShape([1, 2])
    m = np.eye(s.dim, dtype=complex)
    m[4, 4] = 0.0  # h(E1[1,1]) = 0
    h = fd.StarHom(s, s, m)
    assert raised(fd.NotMultiplicative, lambda: fd.validate_starhom(h)) == (
        "h(x*y) != h(x)h(y) at basis pair ('E1[0,1]', 'E1[1,1]'), "
        "residual 1.000e+00"
    )


def test_transpose_fails_multiplicativity_not_star():
    assert raised(
        fd.NotMultiplicative, lambda: fd.validate_starhom(transpose_map(M2))
    ) == (
        "h(x*y) != h(x)h(y) at basis pair ('E0[0,0]', 'E0[0,1]'), "
        "residual 1.000e+00"
    )


def test_doubling_residual():
    h = fd.StarHom(SCALAR, SCALAR, [[2.0]])
    assert raised(fd.NotMultiplicative, lambda: fd.validate_starhom(h)) == (
        "h(x*y) != h(x)h(y) at basis pair ('E0[0,0]', 'E0[0,0]'), "
        "residual 2.000e+00"
    )


# -------------------------------------------------------- validate_spec

def test_hom_not_star_reports_first_map_in_sorted_order():
    # phi[0,2] is broken as well, and its shape group comes first, but
    # phi[0,1] sorts first
    L = sl.chain(3)
    bad_embedding = fd.StarHom(SCALAR, M2, 2 * unital_embedding(M2).matrix)
    spec = gr.GradedSpec(
        L,
        [M2, M2, SCALAR],
        {
            (0, 2): bad_embedding,
            (1, 2): unital_embedding(M2),
            (0, 1): transpose_map(M2),
        },
    )
    assert raised(gr.HomNotStar, lambda: gr.validate_spec(spec)) == (
        "phi[0,1]: h(x*y) != h(x)h(y) at basis pair ('E0[0,0]', 'E0[0,1]'), "
        "residual 1.000e+00"
    )


def test_axiom_b_names_indices_and_pair():
    spec = gr.GradedSpec(
        sl.chain(3),
        [M2, M2, M2],
        {(0, 1): fd.identity_hom(M2), (1, 2): fd.identity_hom(M2), (0, 2): SIGN},
    )
    assert raised(gr.AxiomBViolation, lambda: gr.validate_spec(spec)) == (
        "compatibility fails at indices (i=1, j=2, m=0), "
        "basis pair (1:E0[0,0], 2:E0[0,1]), residual 2.000e+00"
    )


def test_axiom_b_names_the_lowest_failing_m():
    # at (i=2, j=3), k = 2: both m = 0 and m = 1 fail, and m = 0 is named
    ident = fd.identity_hom(M2)
    phi = {pair: ident for pair in sl.chain(4).comparable_pairs()}
    phi[(0, 3)] = phi[(1, 3)] = SIGN
    spec = gr.GradedSpec(sl.chain(4), [M2] * 4, phi)
    assert raised(gr.AxiomBViolation, lambda: gr.validate_spec(spec)) == (
        "compatibility fails at indices (i=2, j=3, m=0), "
        "basis pair (2:E0[0,0], 3:E0[0,1]), residual 2.000e+00"
    )


def test_axiom_b_on_the_diamond():
    L = sl.diamond()
    ident = fd.identity_hom(M2)
    spec = gr.GradedSpec(
        L,
        [M2] * 4,
        {(0, 1): ident, (0, 2): ident, (0, 3): SWAP, (1, 3): ident, (2, 3): ident},
    )
    assert raised(gr.AxiomBViolation, lambda: gr.validate_spec(spec)) == (
        "compatibility fails at indices (i=a, j=1, m=0), "
        "basis pair (a:E0[0,0], 1:E0[0,0]), residual 1.000e+00"
    )


# ------------------------------------------------------------- q family

def _m2_identity_chain():
    return gr.GradedSpec(sl.chain(2), [M2, M2], {(0, 1): fd.identity_hom(M2)})


def test_q_not_multiplication():
    q = gr.q_family_from_spec(_m2_identity_chain())
    q.tensors[(1, 1)] = q.tensors[(1, 1)].copy()
    q.tensors[(1, 1)][0, 1, 2] = 0.5
    assert raised(gr.QAxiomViolation, q.validate) == (
        "q_{i,i} is not multiplication at index 1, residual 5.000e-01"
    )


def test_q_adjoint_symmetry():
    q = gr.q_family_from_spec(_m2_identity_chain())
    q.tensors[(0, 1)] = q.tensors[(0, 1)].copy()
    q.tensors[(0, 1)][1, 0, 0] = 0.5
    assert raised(gr.QAxiomViolation, q.validate) == (
        "adjoint symmetry fails for pair (0, 1), residual 5.000e-01"
    )


def test_q_associativity():
    L = sl.chain(2)
    spec = gr.GradedSpec(L, [SCALAR] * 2, {(0, 1): fd.identity_hom(SCALAR)})
    q = gr.q_family_from_spec(spec)
    q.tensors[(0, 1)] = 2 * q.tensors[(0, 1)]
    q.tensors[(1, 0)] = 2 * q.tensors[(1, 0)]
    assert raised(gr.QAxiomViolation, q.validate) == (
        "associativity fails at indices (0, 1, 1), residual 2.000e+00"
    )


# ------------------------------------------------------------- morphisms

def test_incompatible_plain_family_names_first_pair():
    spec = _m2_identity_chain()
    psi = [fd.identity_hom(M2), SIGN]
    assert raised(gr.IncompatibleFamily, lambda: gr.build_morphism(spec, M2, psi)) == (
        "psi_{j^k}(xy) != psi_j(x) psi_k(y) at (0:E0[0,0], 1:E0[0,1]), "
        "residual 2.000e+00"
    )


def test_incompatible_graded_family():
    spec = _m2_identity_chain()
    psi = [fd.identity_hom(M2), SWAP]
    assert raised(
        gr.IncompatibleFamily, lambda: gr.build_morphism(spec, spec, psi)
    ) == "psi does not intertwine structure maps at pair (0, 1), residual 1.000e+00"


def test_non_star_member_of_plain_family():
    spec = _m2_identity_chain()
    psi = [fd.identity_hom(M2), transpose_map(M2)]
    assert raised(fd.NotMultiplicative, lambda: gr.build_morphism(spec, M2, psi)) == (
        "h(x*y) != h(x)h(y) at basis pair ('E0[0,0]', 'E0[0,1]'), "
        "residual 1.000e+00"
    )
