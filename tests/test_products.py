"""Groups, actions, tensor products, crossed products."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCALAR, M2, all_scalar_spec, block_chain_spec, m2_chain_spec, mixed_diamond_spec, unital_embedding
from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import GradedCstarError, ValidationFailure
from seeded_wedderburn import assert_matches_oracle

C2 = fd.AlgebraShape([1, 1])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
CONV_TOL = 1e-9


# ---------------------------------------------------------------- oracles
# The convolution-law and independence checks that build_crossed_product
# no longer runs: a valid action and the transport check imply both. They
# stay here as references, run on every crossed product these tests build.

def _component_arrays(act, i):
    shape = act.spec.components[i]
    d, side = shape.dim, shape.side
    rows, cols = fd.ambient_index_maps(shape)
    g = act.group.order
    alpha = [act.maps[(s, i)].matrix for s in range(g)]
    amb_basis = np.zeros((d, side, side), dtype=complex)
    amb_basis[np.arange(d), rows, cols] = 1.0
    amb_alpha = np.zeros((g, d, side, side), dtype=complex)
    for s in range(g):
        amb_alpha[s][:, rows, cols] = alpha[s].T
    return shape, d, side, rows, cols, alpha, amb_basis, amb_alpha


def reference_convolution_axioms(act, i, tol=CONV_TOL):
    """Verify the convolution *-algebra laws on basis functions.

    Basis functions are delta masses with a basis coefficient; the
    product of two is another delta mass, so associativity and the
    involution laws reduce to coefficient identities checked here. The
    common left basis factor of the associativity law multiplies
    through unchanged and is dropped.
    """
    group = act.group
    g = group.order
    shape, d, side, rows, cols, alpha, amb_basis, amb_alpha = (
        _component_arrays(act, i)
    )
    if d == 0:
        return 0.0
    P = fd.adjoint_permutation(shape)
    resids = []

    for s1 in range(g):
        for s2 in range(g):
            s12 = group.mul[s1][s2]
            lhs = np.einsum(
                "buv,cvw->bcuw", amb_alpha[s1], amb_alpha[s12]
            )
            inner = np.einsum("buv,cvw->bcuw", amb_basis, amb_alpha[s2])
            pushed = np.einsum("nm,bcm->bcn", alpha[s1], inner[..., rows, cols])
            rhs = np.zeros_like(lhs)
            rhs[..., rows, cols] = pushed
            resids.append(fd.maxabs(lhs - rhs))

    for s in range(g):
        v1 = alpha[group.inverse[s]][:, P]
        v2 = alpha[s] @ np.conj(v1)[P, :]
        resids.append(fd.maxabs(v2 - np.eye(d)))

    struct = np.einsum("auv,bvw->abuw", amb_basis, amb_basis)[..., rows, cols]
    for s1 in range(g):
        for s2 in range(g):
            s12 = group.mul[s1][s2]
            s12inv = group.inverse[s12]
            prodvec = np.einsum(
                "auv,bvw->abuw", amb_basis, amb_alpha[s1]
            )[..., rows, cols]
            left = np.einsum(
                "nm,abm->abn", alpha[s12inv], np.conj(prodvec)[..., P]
            )
            v_y = alpha[group.inverse[s2]][:, P]
            w_x = alpha[group.inverse[s2]] @ alpha[group.inverse[s1]][:, P]
            right = np.einsum("ub,va,uvn->abn", v_y, w_x, struct)
            resids.append(fd.maxabs(left - right))

    worst = fd.maxabs(resids)
    if not worst <= tol:
        raise pr.ActionInvalid(
            f"convolution algebra laws fail on index {i} "
            f"(residual {worst:.3e})"
        )
    return worst


def reference_total_independence(act, rtol=fd.RANK_RTOL):
    """Rank test: the component convolution algebras stay independent
    inside the realized crossed product of the whole graded algebra.

    The realized covariance relation reduces to the action composition
    law checked at build time, so rank is the remaining content.
    """
    spec = act.spec
    group = act.group
    g = group.order
    n_tot = spec.total_dim
    if n_tot == 0:
        return
    ambient = spec.ambient_shape()
    side_h = ambient.side
    # column t: the faithful image of basis element t as a side_h x side_h
    # block-diagonal matrix, flattened
    rows, cols = fd.ambient_index_maps(ambient)
    f_cols = np.zeros((side_h * side_h, n_tot), dtype=complex)
    f_cols[rows * side_h + cols] = spec.pi
    m_s = []
    for s in range(g):
        m = np.zeros((n_tot, n_tot), dtype=complex)
        for i in range(spec.L.n):
            o = spec.offsets[i]
            d = spec.components[i].dim
            m[o : o + d, o : o + d] = act.maps[(s, i)].matrix
        m_s.append(m)
    big = g * side_h
    rep_r = []
    for r in range(g):
        w = f_cols @ m_s[group.inverse[r]]
        rep_r.append(w.T.reshape(n_tot, side_h, side_h))
    vecs = []
    for s in range(g):
        ubig = np.kron(pr._left_translation_matrix(group, s), np.eye(side_h))
        for t in range(n_tot):
            rho = np.zeros((big, big), dtype=complex)
            for r in range(g):
                rho[
                    r * side_h : (r + 1) * side_h,
                    r * side_h : (r + 1) * side_h,
                ] = rep_r[r][t]
            vecs.append((rho @ ubig).reshape(-1))
    stacked = np.asarray(vecs)
    rank = fd.rank(stacked, rtol)
    if rank != g * n_tot:
        raise pr.RealizationFault(
            f"component convolution algebras span rank {rank} in the total "
            f"crossed product, expected {g * n_tot}"
        )


def crossed(act):
    """build_crossed_product, cross-checked against both references and,
    component by component, against the seeded Wedderburn route."""
    cp = pr.build_crossed_product(act)
    for i in range(act.spec.L.n):
        reference_convolution_axioms(act, i)
        if act.spec.components[i].dim:
            assert_matches_oracle(cp.realizations[i].wedderburn, pr._regular_span(act, i))
    reference_total_independence(act)
    return cp


def two_point_chain_spec():
    # functions on two points at the bottom, scalars on top, unital embedding
    h = fd.StarHom(SCALAR, C2, np.array([[1.0], [1.0]]))
    spec = gr.GradedSpec(sl.chain(2), [C2, SCALAR], {(0, 1): h})
    gr.validate_spec(spec)
    return spec


def swap_hom():
    return fd.StarHom(C2, C2, SWAP.copy())


def translation_action(group):
    """Functions on the group, acted on by left translation."""
    shape = fd.AlgebraShape([1] * group.order)
    spec = gr.GradedSpec(sl.chain(1), [shape], {})
    gr.validate_spec(spec)
    maps = {}
    for s in range(group.order):
        m = np.zeros((group.order, group.order))
        m[[group.mul[s][x] for x in range(group.order)], np.arange(group.order)] = 1.0
        maps[(s, 0)] = fd.StarHom(shape, shape, m)
    return pr.build_action(group, spec, maps)


def build_action_reference(group, spec, maps, tol=pr.ACTION_TOL):
    """build_action one (g, i) at a time: validate_starhom and fd.rank per
    map in (g, i) order, then the identity element, composition in
    (g, h, i) order and equivariance in (pair, g) order, each raising on
    its first failure. Returns the completed maps."""
    n, g_ord = spec.L.n, group.order
    full = dict(maps)
    for i in range(n):
        full.setdefault((group.identity, i), fd.identity_hom(spec.components[i]))
    for key in full:
        if not (isinstance(key, tuple) and len(key) == 2
                and 0 <= key[0] < g_ord and 0 <= key[1] < n):
            raise pr.ActionInvalid(f"unrecognized action key {key!r}")
    for g in range(g_ord):
        for i in range(n):
            h = full.get((g, i))
            if h is None:
                raise pr.ActionInvalid(f"no map for group element {group.names[g]} on index {i}")
            if h.source != spec.components[i] or h.target != spec.components[i]:
                raise pr.ActionInvalid(
                    f"map for ({group.names[g]}, {i}) is not an endomorphism "
                    f"of {spec.components[i]}"
                )
            try:
                fd.check_starhom_residuals(
                    h.source, *fd.starhom_residuals(h.source, h.target, h.matrix), tol
                )
            except ValidationFailure as exc:
                raise pr.ActionInvalid(
                    f"map for ({group.names[g]}, {i}) is not a *-homomorphism: {exc}"
                ) from exc
            if fd.rank(h.matrix) != spec.components[i].dim:
                raise pr.ActionInvalid(f"map for ({group.names[g]}, {i}) is not invertible")
    for i in range(n):
        r = fd.maxabs(full[(group.identity, i)].matrix - np.eye(spec.components[i].dim))
        if not r <= tol:
            raise pr.ActionInvalid(
                f"identity element acts nontrivially on index {i} (residual {r:.3e})"
            )
    for g in range(g_ord):
        for h in range(g_ord):
            gh = group.mul[g][h]
            for i in range(n):
                r = fd.maxabs(full[(g, i)].matrix @ full[(h, i)].matrix - full[(gh, i)].matrix)
                if not r <= tol:
                    raise pr.ActionInvalid(
                        f"composition fails on index {i}: {group.names[g]} after "
                        f"{group.names[h]} is not {group.names[gh]} (residual {r:.3e})"
                    )
    for (i, j) in spec.L.comparable_pairs():
        if i == j:
            continue
        phi = spec.phi[(i, j)].matrix
        for g in range(g_ord):
            r = fd.maxabs(full[(g, i)].matrix @ phi - phi @ full[(g, j)].matrix)
            if not r <= tol:
                raise pr.ActionInvalid(
                    f"map for {group.names[g]} does not commute with the "
                    f"structure morphism ({i}, {j}) (residual {r:.3e})"
                )
    return full


def inner_z4_maps(spec):
    """Z4 acting on mixed_diamond_spec by Ad(diag(1, i))^g on its M_2
    components and trivially on its scalars: equivariant, since the maps
    into M_2 are the identity or unital."""
    u = np.diag([1.0, 1j])
    maps = {}
    for g in range(4):
        for i, shape in enumerate(spec.components):
            if shape == M2:
                ug = np.linalg.matrix_power(u, g)
                images = [
                    fd.AlgElement(M2, [ug @ fd.basis_element(M2, a).mats[0] @ ug.conj().T])
                    for a in range(M2.dim)
                ]
                maps[(g, i)] = fd.StarHom.from_images(M2, M2, images)
            else:
                maps[(g, i)] = fd.identity_hom(shape)
    return maps


@st.composite
def broken_actions(draw):
    """inner_z4_maps with one to three maps perturbed: an additive error
    straddling ACTION_TOL, the zero map, a missing map, a map of the wrong
    shape, or two group elements' maps swapped."""
    spec = mixed_diamond_spec()
    maps = inner_z4_maps(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 3))):
        g, i = draw(st.sampled_from(sorted(maps)))
        h = maps.get((g, i), fd.identity_hom(spec.components[i]))
        kind = draw(st.sampled_from(["add", "add", "zero", "drop", "shape", "swap"]))
        if kind == "add":
            noise = rng.standard_normal(h.matrix.shape) + 1j * rng.standard_normal(h.matrix.shape)
            size = 10.0 ** draw(st.floats(-11.0, -7.0))
            maps[(g, i)] = fd.StarHom(h.source, h.target, h.matrix + size * noise / np.linalg.norm(noise))
        elif kind == "zero":
            maps[(g, i)] = fd.zero_hom(h.source, h.target)
        elif kind == "drop":
            maps.pop((g, i), None)
        elif kind == "shape":
            other = SCALAR if h.source == M2 else M2
            maps[(g, i)] = fd.identity_hom(other)
        else:
            maps[(g, i)], maps[((g + 1) % 4, i)] = maps.get(((g + 1) % 4, i), h), h
    return spec, maps


class TestBuildActionAgainstReference:
    def test_inner_action_validates(self):
        spec = mixed_diamond_spec()
        act = pr.build_action(pr.cyclic_group(4), spec, inner_z4_maps(spec))
        want = build_action_reference(pr.cyclic_group(4), spec, inner_z4_maps(spec))
        assert act.maps.keys() == want.keys()
        for key, h in want.items():
            assert np.array_equal(act.maps[key].matrix, h.matrix), key

    @settings(max_examples=80, deadline=None)
    @given(broken_actions())
    def test_same_verdict_and_message(self, case):
        spec, maps = case
        group = pr.cyclic_group(4)
        try:
            build_action_reference(group, spec, maps)
        except pr.ActionInvalid as exc:
            with pytest.raises(pr.ActionInvalid) as got:
                pr.build_action(group, spec, maps)
            assert str(got.value) == str(exc)
            return
        pr.build_action(group, spec, maps)


class TestFiniteGroup:
    def test_cyclic_small(self):
        g = pr.cyclic_group(4)
        assert g.order == 4
        assert g.identity == 0
        assert g.inv(1) == 3
        assert g.op(2, 3) == 1

    def test_order_one(self):
        g = pr.cyclic_group(1)
        assert g.order == 1
        assert g.inverse == (0,)

    def test_symmetric_three(self):
        s3 = pr.symmetric_group(3)
        assert s3.order == 6
        assert s3.identity == 0
        assert any(
            s3.op(a, b) != s3.op(b, a)
            for a in range(6)
            for b in range(6)
        )
        for a in range(6):
            assert s3.op(a, s3.inv(a)) == 0

    def test_product_of_cyclics(self):
        v4 = pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2))
        assert v4.order == 4
        assert all(v4.inv(a) == a for a in range(4))
        assert all(
            v4.op(a, b) == v4.op(b, a) for a in range(4) for b in range(4)
        )
        assert v4.names[3] == "(1,1)"

    def test_no_identity_rejected(self):
        with pytest.raises(pr.NotAGroup, match="identity"):
            pr.FiniteGroup([[1, 1], [1, 1]])

    def test_no_inverse_rejected(self):
        with pytest.raises(pr.NotAGroup, match="inverse"):
            pr.FiniteGroup([[0, 1], [1, 1]])

    def test_nonassociative_rejected(self):
        # five-element table with identity and two-sided inverses but
        # (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 3, 2, 4, 0],
            [2, 3, 4, 0, 1],
            [3, 4, 0, 1, 2],
            [4, 0, 1, 2, 3],
        ]
        with pytest.raises(pr.NotAGroup, match="associativity"):
            pr.FiniteGroup(table)

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(pr.NotAGroup, match="out of range"):
            pr.FiniteGroup([[0, 5], [1, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(pr.NotAGroup, match="square"):
            pr.FiniteGroup([[0, 1], [1]])

    def test_bad_names_rejected(self):
        with pytest.raises(pr.NotAGroup, match="names"):
            pr.FiniteGroup([[0, 1], [1, 0]], names=["e"])


class TestActions:
    def test_trivial_action_validates(self):
        spec = mixed_diamond_spec()
        act = pr.trivial_action(pr.cyclic_group(3), spec)
        rebuilt = pr.build_action(act.group, spec, act.maps)
        assert rebuilt.component_map(2, 1).source == spec.components[1]

    def test_swap_action_validates_and_acts(self):
        spec = two_point_chain_spec()
        act = pr.build_action(
            pr.cyclic_group(2),
            spec,
            {(1, 0): swap_hom(), (1, 1): fd.identity_hom(SCALAR)},
        )
        x = gr.GradedElement(
            spec,
            [
                fd.from_vector(C2, np.array([2.0, 5.0])),
                fd.from_vector(SCALAR, np.array([3.0])),
            ],
        )
        y = act.apply(1, x)
        assert np.allclose(fd.to_vector(y.comps[0]), [5.0, 2.0])
        assert np.allclose(fd.to_vector(y.comps[1]), [3.0])

    def test_identity_element_maps_autofilled(self):
        spec = two_point_chain_spec()
        act = pr.build_action(
            pr.cyclic_group(2),
            spec,
            {(1, 0): swap_hom(), (1, 1): fd.identity_hom(SCALAR)},
        )
        assert np.allclose(act.component_map(0, 0).matrix, np.eye(2))

    def test_nontrivial_identity_element_rejected(self):
        spec = two_point_chain_spec()
        with pytest.raises(pr.ActionInvalid, match="identity element"):
            pr.build_action(
                pr.cyclic_group(2),
                spec,
                {
                    (0, 0): swap_hom(),
                    (0, 1): fd.identity_hom(SCALAR),
                    (1, 0): swap_hom(),
                    (1, 1): fd.identity_hom(SCALAR),
                },
            )

    def test_composition_violation_rejected(self):
        spec = two_point_chain_spec()
        maps = {
            (1, 0): swap_hom(),
            (2, 0): swap_hom(),
            (1, 1): fd.identity_hom(SCALAR),
            (2, 1): fd.identity_hom(SCALAR),
        }
        with pytest.raises(pr.ActionInvalid, match="composition"):
            pr.build_action(pr.cyclic_group(3), spec, maps)

    def test_noninvertible_map_rejected(self):
        spec = two_point_chain_spec()
        collapse = fd.StarHom(C2, C2, np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(pr.ActionInvalid, match="invertible"):
            pr.build_action(
                pr.cyclic_group(2),
                spec,
                {(1, 0): collapse, (1, 1): fd.identity_hom(SCALAR)},
            )

    def test_non_homomorphism_rejected(self):
        spec = two_point_chain_spec()
        stretch = fd.StarHom(C2, C2, np.diag([1.0, 2.0]))
        with pytest.raises(pr.ActionInvalid, match="homomorphism"):
            pr.build_action(
                pr.cyclic_group(2),
                spec,
                {(1, 0): stretch, (1, 1): fd.identity_hom(SCALAR)},
            )

    def test_equivariance_violation_rejected(self):
        # identity structure map but the action swaps only below it
        spec = gr.GradedSpec(
            sl.chain(2), [C2, C2], {(0, 1): fd.identity_hom(C2)}
        )
        gr.validate_spec(spec)
        with pytest.raises(pr.ActionInvalid, match="commute with the structure"):
            pr.build_action(
                pr.cyclic_group(2),
                spec,
                {(1, 0): swap_hom(), (1, 1): fd.identity_hom(C2)},
            )

    def test_missing_map_rejected(self):
        spec = two_point_chain_spec()
        with pytest.raises(pr.ActionInvalid, match="no map"):
            pr.build_action(pr.cyclic_group(2), spec, {(1, 0): swap_hom()})

    def test_stray_key_rejected(self):
        spec = two_point_chain_spec()
        maps = {
            (1, 0): swap_hom(),
            (1, 1): fd.identity_hom(SCALAR),
            (5, 0): swap_hom(),
        }
        with pytest.raises(pr.ActionInvalid, match="unrecognized"):
            pr.build_action(pr.cyclic_group(2), spec, maps)

    def test_wrong_component_shape_rejected(self):
        spec = two_point_chain_spec()
        maps = {(1, 0): swap_hom(), (1, 1): swap_hom()}
        with pytest.raises(pr.ActionInvalid, match="endomorphism"):
            pr.build_action(pr.cyclic_group(2), spec, maps)


def tensor_intersection_dims(a, b, tensor, l, m):
    """Dimension data for the slice overlap at (l, m) in a tensor spec.

    Returns (dim of left-slice span, dim of right-slice span, dim of
    their intersection, dim of the (l, m) component), computed from
    ranks of faithful images, the columns of tensor.pi: left slice = every
    component with first coordinate l, right slice = every component with
    second coordinate m. The intersection dimension uses
    dim(U) + dim(V) - dim(U + V).
    """
    nb = b.L.n

    def slice_vectors(indices):
        return np.concatenate([tensor.pi[:, tensor.span(k)] for k in indices], axis=1)

    left = slice_vectors([sl.product_index(b.L, l, m2) for m2 in range(nb)])
    right = slice_vectors(
        [sl.product_index(b.L, l1, m) for l1 in range(a.L.n)]
    )

    du, dv = fd.rank(left), fd.rank(right)
    dsum = fd.rank(np.concatenate([left, right], axis=1))
    inter = du + dv - dsum
    both = tensor.components[sl.product_index(b.L, l, m)].dim
    return du, dv, inter, both


class TestTensor:
    def test_tensor_shape_blocks_and_dim(self):
        sa = fd.AlgebraShape([2, 3])
        sb = fd.AlgebraShape([1, 2])
        t = pr.tensor_shape(sa, sb)
        assert t.blocks == (2, 4, 3, 6)
        assert t.dim == sa.dim * sb.dim

    def test_basis_permutation_is_permutation(self):
        perm = pr._tensor_basis_permutation(M2, fd.AlgebraShape([2, 1]))
        assert sorted(perm) == list(range(M2.dim * 5))

    def test_tensor_of_identities_is_identity(self):
        th = pr.tensor_hom(fd.identity_hom(M2), fd.identity_hom(C2))
        assert np.allclose(th.matrix, np.eye(8))

    def test_tensor_hom_is_star_hom(self):
        th = pr.tensor_hom(
            unital_embedding(M2), fd.StarHom(SCALAR, C2, np.array([[1.0], [1.0]]))
        )
        fd.validate_starhom(th)
        assert fd.is_unital_hom(th)

    def test_scalar_square_is_scalar_over_product(self):
        a = all_scalar_spec(sl.chain(2))
        t = pr.tensor_spec(a, a)
        assert t.L.n == 4
        assert t.total_dim == 4
        assert all(c.blocks == (1,) for c in t.components)
        assert gr.total_commutative(t)

    def test_matrix_factor_dims_multiply(self):
        t = pr.tensor_spec(m2_chain_spec(), all_scalar_spec(sl.chain(2)))
        assert t.total_dim == 10
        assert [c.dim for c in t.components] == [4, 4, 1, 1]
        assert not gr.total_commutative(t)

    def test_blocks_multiply_pairwise(self):
        bc = block_chain_spec()
        t = pr.tensor_spec(bc, bc)
        assert t.components[0].blocks == (4, 2, 2, 1)

    def test_k0_rank_multiplies(self):
        a = m2_chain_spec()
        b = all_scalar_spec(sl.chain(2))
        t = pr.tensor_spec(a, b)
        ra = kt.verify_k0(a).total_rank
        rb = kt.verify_k0(b).total_rank
        assert kt.verify_k0(t).total_rank == ra * rb

    def test_slice_intersection_at_matrix_corner(self):
        a = m2_chain_spec()
        t = pr.tensor_spec(a, a)
        assert tensor_intersection_dims(a, a, t, 0, 0) == (20, 20, 16, 16)

    def test_slice_intersection_at_top(self):
        a = m2_chain_spec()
        t = pr.tensor_spec(a, a)
        assert tensor_intersection_dims(a, a, t, 1, 1) == (5, 5, 1, 1)


class TestCrossedProduct:
    def test_trivial_group_reproduces_spec(self):
        for spec in (m2_chain_spec(), mixed_diamond_spec()):
            act = pr.trivial_action(pr.cyclic_group(1), spec)
            cp = crossed(act)
            assert tuple(cp.spec.components) == tuple(spec.components)
            assert cp.spec.total_dim == spec.total_dim

    @pytest.mark.parametrize(
        "group",
        [
            pr.cyclic_group(2),
            pr.cyclic_group(3),
            pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2)),
            pr.symmetric_group(3),
        ],
        ids=["z2", "z3", "z2xz2", "s3"],
    )
    def test_translation_on_group_functions_gives_full_matrices(self, group):
        # functions on G crossed by translation: one full matrix block
        out = crossed(translation_action(group)).spec
        assert out.components[0].blocks == (group.order,)
        assert out.total_dim == group.order ** 2

    def test_swap_action_on_two_points(self):
        spec = two_point_chain_spec()
        act = pr.build_action(
            pr.cyclic_group(2),
            spec,
            {(1, 0): swap_hom(), (1, 1): fd.identity_hom(SCALAR)},
        )
        cp = crossed(act)
        assert cp.spec.components[0].blocks == (2,)
        assert set(cp.spec.components[1].blocks) == {1}
        assert cp.spec.components[1].nblocks == 2
        assert cp.spec.total_dim == 2 * spec.total_dim
        report = kt.verify_k0(cp.spec)
        assert report.unimodular
        assert report.total_rank == 3

    def test_trivial_action_doubles_blocks(self):
        spec = m2_chain_spec()
        act = pr.trivial_action(pr.cyclic_group(2), spec)
        cp = crossed(act)
        assert cp.spec.components[0].blocks == (2, 2)
        assert cp.spec.components[1].blocks == (1, 1)
        assert cp.spec.total_dim == 2 * spec.total_dim

    def test_zero_spec_crosses_to_zero(self):
        spec = all_scalar_spec(sl.diamond())
        everything = {
            i: list(range(c.nblocks)) for i, c in enumerate(spec.components)
        }
        quotient = gr.verify_ideal_gradation(spec, everything).quotient
        act = pr.trivial_action(pr.cyclic_group(2), quotient)
        cp = crossed(act)
        assert cp.spec.total_dim == 0

    def test_determinism(self):
        act = translation_action(pr.cyclic_group(3))
        s1 = crossed(act).spec
        s2 = crossed(act).spec
        for key in s1.phi:
            assert np.array_equal(s1.phi[key].matrix, s2.phi[key].matrix)

    def test_convolution_residual_is_tiny(self):
        spec = two_point_chain_spec()
        act = pr.build_action(
            pr.cyclic_group(2),
            spec,
            {(1, 0): swap_hom(), (1, 1): fd.identity_hom(SCALAR)},
        )
        assert reference_convolution_axioms(act, 0) < 1e-12

    def test_transport_check_wiring(self):
        act = translation_action(pr.cyclic_group(2))
        cp = crossed(act)
        with pytest.raises(pr.TransportMismatch):
            pr._check_transport(act, cp.spec, cp.realizations, tol=-1.0)

    def test_independence_check_wiring(self):
        act = translation_action(pr.cyclic_group(2))
        with pytest.raises(pr.RealizationFault):
            reference_total_independence(act, rtol=2.0)

    @pytest.mark.parametrize(
        "family", [wb.coset_z4_family, wb.coset_s3_family], ids=["z4", "s3"]
    )
    def test_coset_actions_pass_the_references(self, family):
        group, subgroups = family()
        spec, act = wb.build_coset_spec(group, subgroups)
        cp = crossed(act)
        assert cp.spec.total_dim == group.order * spec.total_dim
        assert pr._check_transport(act, cp.spec, cp.realizations) < 1e-12

    @pytest.mark.parametrize("index", [0, 1])
    def test_perturbed_realization_fails_transport(self, index):
        spec = two_point_chain_spec()
        act = pr.build_action(
            pr.cyclic_group(2),
            spec,
            {(1, 0): swap_hom(), (1, 1): fd.identity_hom(SCALAR)},
        )
        cp = crossed(act)
        reals = list(cp.realizations)
        bent = reals[index].matrix.copy()
        bent[0, 0] += 1e-5
        reals[index] = dataclasses.replace(reals[index], matrix=bent)
        with pytest.raises(pr.TransportMismatch):
            pr._check_transport(act, cp.spec, reals)

    def test_star_only_break_fails_transport(self):
        # conjugating the M_2 realization by a non-unitary S keeps it
        # multiplicative but no longer *-preserving
        act = translation_action(pr.cyclic_group(2))
        cp = crossed(act)
        block = cp.spec.components[0]
        assert block.blocks == (2,)
        S = np.diag([1.0, 2.0])
        ad = np.kron(S, np.linalg.inv(S).T)  # vec(S x S^-1), row-major
        star, mult = fd.starhom_residuals(block, block, ad)
        assert fd.maxabs(mult) < 1e-12 and fd.maxabs(star) > 0.1
        real = cp.realizations[0]
        bent = dataclasses.replace(real, matrix=ad @ real.matrix)
        with pytest.raises(pr.TransportMismatch):
            pr._check_transport(act, cp.spec, [bent])

    @pytest.mark.parametrize(
        "bad",
        [np.array([[1.0, 1.0], [0.0, 0.0]]), 2.0 * SWAP, 1j * np.eye(2)],
        ids=["rank-one", "twice-swap", "i-times-identity"],
    )
    def test_unchecked_non_action_is_refused(self, bad):
        # assembled without build_action, so nothing has checked the laws
        spec = two_point_chain_spec()
        group = pr.cyclic_group(2)
        maps = {
            (0, 0): fd.identity_hom(C2),
            (0, 1): fd.identity_hom(SCALAR),
            (1, 0): fd.StarHom(C2, C2, bad),
            (1, 1): fd.identity_hom(SCALAR),
        }
        with pytest.raises(GradedCstarError):
            pr.build_crossed_product(pr.GradedAction(group, spec, maps))
