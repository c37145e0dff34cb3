"""Groups, actions, tensor products, crossed products."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SCALAR, M2, all_scalar_spec, block_chain_spec, m2_chain_spec, mixed_diamond_spec, unital_embedding
from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import GradedCstarError, ValidationFailure
from axiom_b_references import axiom_b_reference
from crossed_references import (
    assert_matches_oracle,
    left_translation_matrix,
    transport_reference,
)

C2 = fd.AlgebraShape([1, 1])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
CONV_TOL = 1e-9


# ---------------------------------------------------------------- oracles
# The convolution-law and independence checks that build_crossed_product
# no longer runs: a valid action and the transport check imply both. The
# transport check itself certifies each realization once per index; the
# identity for every ordered pair of indices, which follows by the proof in
# build_crossed_product, is crossed_references.transport_reference. All
# three stay as references, run on every crossed product these tests build.

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
        ubig = np.kron(left_translation_matrix(group, s), np.eye(side_h))
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
    """build_crossed_product, cross-checked against the references above,
    against the per-pair transport identity and against the Wedderburn
    route: the same block shapes on every index and the same K0 generator
    matrix up to the matching of the blocks."""
    cp = pr.build_crossed_product(act)
    for i in range(act.spec.L.n):
        reference_convolution_axioms(act, i)
    reference_total_independence(act)
    assert transport_reference(act, cp.spec, cp.realizations) < 1e-12
    assert_matches_oracle(cp)
    return cp


def two_point_chain_spec():
    # functions on two points at the bottom, scalars on top, unital embedding
    h = fd.StarHom(SCALAR, C2, np.array([[1.0], [1.0]]))
    spec = gr.GradedSpec(sl.chain(2), [C2, SCALAR], {(0, 1): h})
    gr.validate_spec(spec)
    return spec


def swap_hom():
    return fd.StarHom(C2, C2, SWAP.copy())


def map_from(shape, f):
    """The linear map on shape sending each matrix unit's list of blocks m
    to f(m)."""
    images = [
        fd.AlgElement(shape, f(fd.basis_element(shape, a).mats))
        for a in range(shape.dim)
    ]
    return fd.StarHom.from_images(shape, shape, images)


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
                    h.source,
                    fd.star_residuals(h.source, h.target, h.matrix),
                    fd.mult_residuals(h.source, h.target, h.matrix),
                    tol,
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


def finite_group_reference(mul):
    """The verdict of FiniteGroup's checks by exhaustive loops, in its
    order: identity, then associativity at the first (a, b, c) in
    lexicographic order, then inverses. The message of the first failure,
    or None."""
    n = len(mul)
    units = [e for e in range(n) if all(mul[e][x] == x == mul[x][e] for x in range(n))]
    if not units:
        return "no two-sided identity element"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    for a in range(n):
        if not any(mul[a][b] == units[0] == mul[b][a] for b in range(n)):
            return f"element {a} has no two-sided inverse"
    return None


@st.composite
def tables_with_identity(draw):
    # row and column 0 are the identity's, so most tables reach the
    # associativity and inverse checks
    n = draw(st.integers(1, 6))
    mul = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        mul[0][x] = mul[x][0] = x
    return mul


class TestFiniteGroup:
    @settings(max_examples=150, deadline=None)
    @given(tables_with_identity())
    def test_first_failure_matches_the_loops(self, mul):
        message = finite_group_reference(mul)
        if message is None:
            group = pr.FiniteGroup(mul)
            assert all(mul[a][group.inverse[a]] == group.identity for a in range(len(mul)))
            return
        with pytest.raises(pr.NotAGroup) as got:
            pr.FiniteGroup(mul)
        assert str(got.value) == message

    @pytest.mark.parametrize("mul, message", [
        ([[0, 1.7], [1, 0]], "table entry 1.7 is not an integer"),  # not Z2
        ([[0, 1], [1, "0"]], "table entry '0' is not an integer"),
        ([[0, 1], [1, 2.5]], "table entry 2.5 is not an integer"),
        ([[0, 2], [1, 0.5]], "table entry 2 out of range 0..1"),
        ([[0, 1], [1]], "multiplication table is not square"),
        ([], "empty multiplication table"),
    ])
    def test_table_entries_must_be_integers_in_range(self, mul, message):
        with pytest.raises(pr.NotAGroup) as got:
            pr.FiniteGroup(mul)
        assert str(got.value) == message

    def test_tables_are_read_only_intp_arrays(self):
        g = pr.product_group(pr.cyclic_group(2), pr.symmetric_group(3))
        for table in (g.mul, g.inverse):
            assert table.dtype == np.intp
            with pytest.raises(ValueError):
                table[0] = 0
        assert (g.mul[np.arange(g.order), g.inverse] == g.identity).all()

    def test_cyclic_small(self):
        g = pr.cyclic_group(4)
        assert g.order == 4
        assert g.identity == 0
        assert g.inverse[1] == 3
        assert g.mul[2, 3] == 1

    def test_order_one(self):
        g = pr.cyclic_group(1)
        assert g.order == 1
        assert np.array_equal(g.inverse, [0])

    def test_symmetric_three(self):
        s3 = pr.symmetric_group(3)
        assert s3.order == 6
        assert s3.identity == 0
        assert any(
            s3.mul[a, b] != s3.mul[b, a]
            for a in range(6)
            for b in range(6)
        )
        for a in range(6):
            assert s3.mul[a, s3.inverse[a]] == 0

    def test_product_of_cyclics(self):
        v4 = pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2))
        z2, z3 = pr.cyclic_group(2), pr.cyclic_group(3)
        z6 = pr.product_group(z2, z3)
        assert np.array_equal(z6.mul, [
            [(a1 + b1) % 2 * 3 + (a2 + b2) % 3 for b1 in range(2) for b2 in range(3)]
            for a1 in range(2)
            for a2 in range(3)
        ])
        assert v4.order == 4
        assert all(v4.inverse[a] == a for a in range(4))
        assert all(
            v4.mul[a, b] == v4.mul[b, a] for a in range(4) for b in range(4)
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


# ----------------------------------------------------------- tensor oracle
# tensor_spec takes the product's Pi as one Kronecker gather. The per-pair
# map it replaced stays here, and tensor() checks every tensor product
# these tests build against it, and its K0 against K_A (x) K_B.

def tensor_hom(ha, hb):
    """The map between tensor shapes acting factorwise."""
    src = pr.tensor_shape(ha.source, hb.source)
    tgt = pr.tensor_shape(ha.target, hb.target)
    ps = pr._tensor_basis_permutation(ha.source, hb.source)
    pt = pr._tensor_basis_permutation(ha.target, hb.target)
    m = np.zeros((tgt.dim, src.dim), dtype=complex)
    m[np.ix_(pt, ps)] = np.kron(ha.matrix, hb.matrix)
    return fd.StarHom(src, tgt, m)


def k0_generators(spec):
    """(index, block) of every K0 generator, in verify_k0's row order."""
    return [(i, b) for i, c in enumerate(spec.components) for b in range(c.nblocks)]


def tensor(a, b):
    """tensor_spec on validated factors, so that their bounds certify the
    product, with every structure map checked bit for bit against
    tensor_hom, the rank matrix against K_A (x) K_B: the tensor
    product of the generators (i1, b1) and (i2, b2) is the generator
    ((i1, i2), b1 nblocks(B_i2) + b2) (Blackadar, K-Theory for Operator
    Algebras, 1998), and the certificate against full validation."""
    for spec in (a, b):
        if spec.validated_bounds is None:
            gr.validate_spec(spec)
    t = pr.tensor_spec(a, b)
    assert_certificate_sound(t)
    nb = b.L.n
    for (x, y), h in t.phi.items():
        (i1, i2), (j1, j2) = divmod(x, nb), divmod(y, nb)
        want = tensor_hom(a.phi[(i1, j1)], b.phi[(i2, j2)])
        assert (h.source, h.target) == (want.source, want.target)
        assert h.matrix.tobytes() == want.matrix.tobytes(), (x, y)
    row = {gen: r for r, gen in enumerate(k0_generators(t))}
    perm = [
        row[(i1 * nb + i2, b1 * b.components[i2].nblocks + b2)]
        for i1, b1 in k0_generators(a)
        for i2, b2 in k0_generators(b)
    ]
    got = np.array(kt.verify_k0(t).phi_matrix)
    want = np.kron(kt.verify_k0(a).phi_matrix, kt.verify_k0(b).phi_matrix)
    assert np.array_equal(got[np.ix_(perm, perm)], want)
    return t


def assert_certificate_sound(t):
    """The product rebuilt from its Pi with no verdict passes
    validate_spec. At tol = 1, above fd.GENERATOR_TOL_MAX, the *-hom
    checks run over basis pairs, so that report holds their exact
    residuals; axiom_b_reference gives the largest basis-pair residual of
    axiom (b). Each is within the bound recorded on t."""
    fresh = gr.GradedSpec.from_pi(t.L, t.components, t.pi)
    gr.validate_spec(fresh)
    got = gr.validate_spec(fresh, 1.0)
    bounds = t.validated_bounds
    assert t.validated_tol <= gr.AXIOM_TOL
    assert got.identity_residual <= bounds.identity
    assert got.hom_star_residual <= bounds.star
    assert got.hom_mult_residual <= bounds.hom
    assert axiom_b_reference(fresh)[0] <= bounds.axiom_b


def tensor_reference(a, b):
    """The product built pair by pair from tensor_hom over a checked
    product semilattice, with no verdict."""
    nb = b.L.n
    L = sl.Semilattice(
        sl._componentwise_table(a.L.meet, b.L.meet),
        [f"({x},{y})" for x in a.L.names for y in b.L.names],
    )
    comps = [pr.tensor_shape(ca, cb) for ca in a.components for cb in b.components]
    phi = {
        (x, y): tensor_hom(a.phi[(x // nb, y // nb)], b.phi[(x % nb, y % nb)])
        for x, y in L.comparable_pairs()
    }
    return gr.GradedSpec(L, comps, phi)


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

    def test_nan_map_fails_validation_not_construction(self):
        # in kron(a.pi, b.pi) a NaN of one factor meets the other's zero
        # blocks; the product's blocks off the order must still read 0
        nan = gr.GradedSpec(
            sl.chain(2), [SCALAR, SCALAR],
            {(0, 1): fd.StarHom(SCALAR, SCALAR, np.array([[np.nan]]))},
        )
        other = all_scalar_spec(sl.antichain_with_bottom(2))
        with pytest.raises(gr.HomNotStar, match=r"^phi\[\(0,0\),\(1,0\)\]: .* residual nan$"):
            pr.tensor_spec(nan, other)
        with pytest.raises(gr.HomNotStar, match=r"^phi\[\(0,0\),\(0,1\)\]: .* residual nan$"):
            pr.tensor_spec(m2_chain_spec(), nan)

    def test_tensor_of_identities_is_identity(self):
        th = tensor_hom(fd.identity_hom(M2), fd.identity_hom(C2))
        assert np.allclose(th.matrix, np.eye(8))

    def test_tensor_hom_is_star_hom(self):
        th = tensor_hom(
            unital_embedding(M2), fd.StarHom(SCALAR, C2, np.array([[1.0], [1.0]]))
        )
        fd.validate_starhom(th)
        assert fd.is_unital_hom(th)

    def test_scalar_square_is_scalar_over_product(self):
        a = all_scalar_spec(sl.chain(2))
        t = tensor(a, a)
        assert t.L.n == 4
        assert t.total_dim == 4
        assert all(c.blocks == (1,) for c in t.components)
        assert gr.total_commutative(t)

    def test_matrix_factor_dims_multiply(self):
        t = tensor(m2_chain_spec(), all_scalar_spec(sl.chain(2)))
        assert t.total_dim == 10
        assert [c.dim for c in t.components] == [4, 4, 1, 1]
        assert not gr.total_commutative(t)

    def test_blocks_multiply_pairwise(self):
        bc = block_chain_spec()
        t = tensor(bc, bc)
        assert t.components[0].blocks == (4, 2, 2, 1)

    def test_k0_rank_multiplies(self):
        a = m2_chain_spec()
        b = all_scalar_spec(sl.chain(2))
        t = tensor(a, b)
        ra = kt.verify_k0(a).total_rank
        rb = kt.verify_k0(b).total_rank
        assert kt.verify_k0(t).total_rank == ra * rb

    def test_slice_intersection_at_matrix_corner(self):
        a = m2_chain_spec()
        t = tensor(a, a)
        assert tensor_intersection_dims(a, a, t, 0, 0) == (20, 20, 16, 16)

    def test_slice_intersection_at_top(self):
        a = m2_chain_spec()
        t = tensor(a, a)
        assert tensor_intersection_dims(a, a, t, 1, 1) == (5, 5, 1, 1)


def certificate_factors():
    """Named factor builders: exact specs, and coset specs whose residuals
    are rounding errors."""
    return {
        "m2-chain": m2_chain_spec,
        "mixed-diamond": mixed_diamond_spec,
        "block-chain": block_chain_spec,
        "all-scalar-diamond": lambda: all_scalar_spec(sl.diamond()),
        "coset-z4": lambda: wb.demo_spec("coset-z4"),
        "coset-s3": lambda: wb.build_coset_spec(*wb.coset_s3_family())[0],
    }


@st.composite
def noisy_factors(draw):
    """A certificate factor with complex noise of a drawn size added to
    every comparable block of Pi, diagonals included, so that the
    identity, star, multiplicativity and axiom (b) residuals all move;
    validated, and kept only when it passes."""
    spec = certificate_factors()[draw(st.sampled_from(sorted(certificate_factors())))]()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.floats(-16.0, -11.0).map(lambda e: 10.0**e))
    owner = gr._owners(spec.components)
    noise = rng.standard_normal(spec.pi.shape) + 1j * rng.standard_normal(spec.pi.shape)
    noise *= size * spec.L.le[np.ix_(owner, owner)]
    spec = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi + noise)
    try:
        gr.validate_spec(spec)
    except ValidationFailure:
        assume(False)
    return spec


def counted_validations(monkeypatch):
    """The specs gr.validate_spec is called on from now on."""
    calls = []
    real = gr.validate_spec
    monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a[0]) or real(*a))
    return calls


def broken_m2_chain(kind):
    """A spec that fails by about 1e-6: m2-chain with an additive error
    on phi_{0,1} fails the *-hom check; a chain of three M_2 whose
    phi_{0,2} is a rotation by 1e-6 radians, the other maps the identity,
    fails axiom (b)."""
    h = unital_embedding(M2)
    if kind == "hom":
        noise = 1e-6 * np.random.default_rng(5).standard_normal(h.matrix.shape)
        return gr.GradedSpec(sl.chain(2), [M2, SCALAR], {(0, 1): fd.StarHom(SCALAR, M2, h.matrix + noise)})
    c, s = np.cos(1e-6), np.sin(1e-6)
    u = np.array([[c, -s], [s, c]])
    images = [fd.AlgElement(M2, [u @ fd.basis_element(M2, a).mats[0] @ u.T]) for a in range(M2.dim)]
    ident = fd.identity_hom(M2)
    return gr.GradedSpec(
        sl.chain(3), [M2] * 3,
        {(0, 1): ident, (1, 2): ident, (0, 2): fd.StarHom.from_images(M2, M2, images)},
    )


def loosely_validated(kind):
    """broken_m2_chain(kind) after it passes at tol 1e-3, so that it
    carries bounds of about 1e-6."""
    spec = broken_m2_chain(kind)
    gr.validate_spec(spec, 1e-3)
    assert spec.validated_bounds is not None
    return spec


class TestTensorCertificate:
    @pytest.mark.parametrize("left", sorted(certificate_factors()))
    @pytest.mark.parametrize("right", ["m2-chain", "coset-z4", "all-scalar-diamond"])
    def test_validated_factors_certify_the_product(self, left, right, monkeypatch):
        a, b = certificate_factors()[left](), certificate_factors()[right]()
        gr.validate_spec(a)
        gr.validate_spec(b)
        calls = counted_validations(monkeypatch)
        t = pr.tensor_spec(a, b)
        assert calls == []
        assert t.validated_tol == gr.AXIOM_TOL
        assert_certificate_sound(t)

    def test_product_of_products_is_certified(self, monkeypatch):
        t = tensor(m2_chain_spec(), wb.demo_spec("coset-z4"))
        u = tensor(all_scalar_spec(sl.chain(2)), t)
        calls = counted_validations(monkeypatch)
        pr.tensor_spec(u, t)
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(noisy_factors(), noisy_factors())
    def test_noisy_factors(self, a, b):
        calls = []
        real = gr.validate_spec
        gr.validate_spec = lambda *args: calls.append(args[0]) or real(*args)
        try:
            t = pr.tensor_spec(a, b)
        finally:
            gr.validate_spec = real
        if calls:
            # the bounds did not certify: validated in full, as the
            # reference product is
            assert calls == [t]
            gr.validate_spec(tensor_reference(a, b))
        else:
            assert_certificate_sound(t)

    def test_library_target(self, monkeypatch):
        a = wb.build_all_scalar(sl.chain(16))
        gr.validate_spec(a)

        def refuse(table):
            raise AssertionError("semilattice check")

        monkeypatch.setattr(sl, "_first_nonassociative", refuse)
        calls = counted_validations(monkeypatch)
        t = pr.tensor_spec(a, a)
        assert calls == []
        assert t.L.n == 256 and t.validated_bounds == (0.0, 0.0, 0.0, 0.0)

    def test_factor_without_verdict_validates_the_product(self, monkeypatch):
        a, b = m2_chain_spec(), wb.demo_spec("coset-z4")
        gr.validate_spec(b)
        calls = counted_validations(monkeypatch)
        t = pr.tensor_spec(a, b)
        assert calls == [t]
        assert_certificate_sound(t)

    @pytest.mark.parametrize("field", gr.SpecBounds._fields)
    def test_bound_above_tol_validates_the_product(self, field, monkeypatch):
        a, b = m2_chain_spec(), wb.demo_spec("coset-z4")
        gr.validate_spec(a)
        gr.validate_spec(b)
        a.validated_bounds = a.validated_bounds._replace(**{field: 2 * gr.AXIOM_TOL})
        real = gr.validate_spec
        calls = counted_validations(monkeypatch)
        t = pr.tensor_spec(a, b)
        assert calls == [t]
        ref = tensor_reference(a, b)
        real(ref)
        assert t.validated_bounds == ref.validated_bounds

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: broken_m2_chain("hom"), id="no-verdict-hom"),
            pytest.param(lambda: broken_m2_chain("axiom-b"), id="no-verdict-axiom-b"),
            pytest.param(lambda: loosely_validated("hom"), id="bounds-above-tol-hom"),
            pytest.param(lambda: loosely_validated("axiom-b"), id="bounds-above-tol-axiom-b"),
            pytest.param(
                lambda: gr.GradedSpec(
                    sl.chain(2), [SCALAR, SCALAR],
                    {(0, 1): fd.StarHom(SCALAR, SCALAR, np.array([[np.nan]]))},
                ),
                id="nan",
            ),
        ],
    )
    def test_fallback_raises_what_validation_raises(self, make, monkeypatch):
        other = wb.demo_spec("coset-z4")
        gr.validate_spec(other)
        for a, b in ((make(), other), (other, make())):
            with pytest.raises(ValidationFailure) as want:
                gr.validate_spec(tensor_reference(a, b))
            calls = counted_validations(monkeypatch)
            with pytest.raises(type(want.value)) as got:
                pr.tensor_spec(a, b)
            assert str(got.value) == str(want.value)
            assert len(calls) == 1


def xz_action():
    """Z2 x Z2 on the m2-chain by Ad of Z^a X^b on M_2 and trivially on C.
    XZ = -ZX, so the implementing unitaries carry the nontrivial cocycle
    of Z2 x Z2."""
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    group = pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2))
    maps = {}
    for a in range(2):
        for b in range(2):
            u = np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
            maps[(2 * a + b, 0)] = map_from(M2, lambda m, u=u: [u @ m[0] @ u.T])
            maps[(2 * a + b, 1)] = fd.identity_hom(SCALAR)
    return pr.build_action(group, m2_chain_spec(), maps)


def inner_z2_action():
    """Z2 on the m2-chain by Ad s on M_2, for a self-adjoint unitary s whose
    first column is largest in a complex entry: the implementing unitary
    read off the action is s times that entry's phase c, so
    omega(1, 1) = c^2 is a phase other than 1, a coboundary."""
    t, phase = 1.0, np.exp(0.7j)
    s = np.array([[np.cos(t), phase * np.sin(t)], [np.conj(phase) * np.sin(t), -np.cos(t)]])
    maps = {
        (1, 0): map_from(M2, lambda m: [s @ m[0] @ s]),
        (1, 1): fd.identity_hom(SCALAR),
    }
    return pr.build_action(pr.cyclic_group(2), m2_chain_spec(), maps)


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

    def test_transport_check_wiring(self, monkeypatch):
        act = translation_action(pr.cyclic_group(2))
        cp = crossed(act)
        monkeypatch.setattr(pr, "TRANSPORT_TOL", -1.0)
        with pytest.raises(pr.TransportMismatch):
            pr._check_transport(act, cp.realizations)

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
        assert pr._check_transport(act, cp.realizations) < 1e-12

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
            pr._check_transport(act, reals)
        with pytest.raises(pr.TransportMismatch):
            transport_reference(act, cp.spec, reals)

    def test_star_only_break_fails_transport(self):
        # conjugating the M_2 realization by a non-unitary S keeps it
        # multiplicative but no longer *-preserving
        act = translation_action(pr.cyclic_group(2))
        cp = crossed(act)
        block = cp.spec.components[0]
        assert block.blocks == (2,)
        S = np.diag([1.0, 2.0])
        ad = np.kron(S, np.linalg.inv(S).T)  # vec(S x S^-1), row-major
        star, mult = fd.star_residuals(block, block, ad), fd.mult_residuals(block, block, ad)
        assert fd.maxabs(mult) < 1e-12 and fd.maxabs(star) > 0.1
        real = cp.realizations[0]
        bent = dataclasses.replace(real, matrix=ad @ real.matrix)
        with pytest.raises(pr.TransportMismatch):
            pr._check_transport(act, [bent])
        with pytest.raises(pr.TransportMismatch):
            transport_reference(act, cp.spec, [bent])

    def test_nontrivial_cocycle_on_the_m2_chain(self):
        # Z2 x Z2 acts on M_2 by Ad of Z^a X^b. XZ = -ZX, so the
        # implementing unitaries carry the nontrivial cocycle of Z2 x Z2,
        # whose twisted group algebra is M_2: M_2 gives one block of side
        # 1 * 2 * 2. The action on C is trivial, so C gives the four
        # characters of Z2 x Z2.
        act = xz_action()
        cp = crossed(act)
        assert [c.blocks for c in cp.spec.components] == [(4,), (1, 1, 1, 1)]
        assert pr._check_transport(act, cp.realizations) < 1e-12
        report = kt.verify_k0(cp.spec)
        assert report.unimodular and report.total_rank == 5

    def test_swap_of_two_matrix_blocks(self):
        # one orbit of two blocks of side 2, trivial stabilizer: one block
        # of side 2 * 2
        shape = fd.AlgebraShape([2, 2])
        spec = gr.GradedSpec(sl.chain(1), [shape], {})
        swap = map_from(shape, lambda m: [m[1], m[0]])
        act = pr.build_action(pr.cyclic_group(2), spec, {(1, 0): swap})
        cp = crossed(act)
        assert cp.spec.components[0].blocks == (4,)
        assert pr._check_transport(act, cp.realizations) < 1e-12

    def test_stabilizer_acts_on_a_permuted_orbit(self):
        # Z4's generator sends (x, y) to (y, X x X): the orbit is both
        # blocks, the stabilizer {0, 2} acts on block 0 by Ad X, whose
        # cocycle is trivial (X^2 = 1), so each of Z2's two characters
        # gives one block of side 2 * 2 * 1
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        shape = fd.AlgebraShape([2, 2])
        spec = gr.GradedSpec(sl.chain(1), [shape], {})
        gen = map_from(shape, lambda m: [m[1], x @ m[0] @ x]).matrix
        maps = {
            (s, 0): fd.StarHom(shape, shape, np.linalg.matrix_power(gen, s))
            for s in range(4)
        }
        act = pr.build_action(pr.cyclic_group(4), spec, maps)
        cp = crossed(act)
        assert cp.spec.components[0].blocks == (4, 4)
        assert pr._check_transport(act, cp.realizations) < 1e-12

    @pytest.mark.parametrize(
        "make, sides",
        [
            (lambda: pr.trivial_action(pr.cyclic_group(2), all_scalar_spec(sl.diamond())), []),
            (inner_z2_action, []),
            (lambda: wb.build_coset_spec(*wb.coset_s3_family())[1], [6]),
            (xz_action, [4]),
        ],
        ids=["diamond-z2", "m2-z2", "coset-s3", "z2xz2-xz"],
    )
    def test_wedderburn_runs_once_per_stabilizer_algebra(self, make, sides, monkeypatch):
        # each distinct (H's table, omega) is decomposed once, and wedderburn
        # sees only the twisted group algebras that are not commutative: S3's
        # group algebra, and M_2 from the cocycle of Z2 x Z2 on M_2 by Ad of
        # Z^a X^b. Cyclic stabilizers, and m2-z2's cocycle with omega(1, 1) a
        # phase other than 1, get their characters in closed form.
        keys, seen = [], []
        decompose, irreps = kt.wedderburn, pr._twisted_irreps

        def counted(basis, *args):
            seen.append(basis[0].shape.side)
            return decompose(basis, *args)

        def keyed(hmul, omega):
            keys.append((hmul.tobytes(), omega.tobytes()))
            return irreps(hmul, omega)

        monkeypatch.setattr(kt, "wedderburn", counted)
        monkeypatch.setattr(pr, "_twisted_irreps", keyed)
        pr.build_crossed_product(make())
        assert len(set(keys)) == len(keys)
        assert sorted(seen) == sides

    @pytest.mark.parametrize(
        "make",
        [
            lambda: pr.trivial_action(pr.cyclic_group(2), all_scalar_spec(sl.diamond())),
            inner_z2_action,
        ],
        ids=["diamond-z2", "m2-z2"],
    )
    def test_twisted_characters_match_the_oracle(self, make):
        assert_matches_oracle(pr.build_crossed_product(make()))

    def test_block_permutations_must_form_an_action(self):
        # every element of Z3 swaps the two points: each map permutes the
        # blocks, but 1 after 1 is not 2
        spec = two_point_chain_spec()
        maps = {(0, 0): fd.identity_hom(C2), (0, 1): fd.identity_hom(SCALAR)}
        for s in (1, 2):
            maps[(s, 0)], maps[(s, 1)] = swap_hom(), fd.identity_hom(SCALAR)
        act = pr.GradedAction(pr.cyclic_group(3), spec, maps)
        with pytest.raises(pr.RealizationFault, match="not a group action: 1 after 1 is not 2"):
            pr.build_crossed_product(act)

    def test_transpose_is_refused(self):
        # the transpose fixes the block of M_2 but is no automorphism:
        # no projective representation implements it
        spec = m2_chain_spec()
        maps = {
            (0, 0): fd.identity_hom(M2), (0, 1): fd.identity_hom(SCALAR),
            (1, 0): map_from(M2, lambda m: [m[0].T]), (1, 1): fd.identity_hom(SCALAR),
        }
        act = pr.GradedAction(pr.cyclic_group(2), spec, maps)
        with pytest.raises(pr.RealizationFault, match="projective representation"):
            pr.build_crossed_product(act)

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

    def test_unchecked_non_equivariant_action_is_refused(self):
        # coset-z4 with index 1 acting trivially: every map is an action on
        # its own index, but translation on index 0 does not commute with
        # the pullback from index 1. build_action refuses it; assembled
        # without build_action, the transported maps are not *-homs, so the
        # output spec fails validation before the transport check runs
        spec, act = wb.build_coset_spec(*wb.coset_z4_family())
        maps = dict(act.maps)
        for s in range(act.group.order):
            maps[(s, 1)] = fd.identity_hom(spec.components[1])
        with pytest.raises(pr.ActionInvalid, match="does not commute"):
            pr.build_action(act.group, spec, maps)
        with pytest.raises(gr.HomNotStar):
            pr.build_crossed_product(pr.GradedAction(act.group, spec, maps))


# ------------------------------------------------- twisted characters
# A commutative twisted group algebra gets its characters in closed form;
# the wedderburn route it replaced, sorted the same way, is the oracle.

ABELIAN = [pr.cyclic_group(n) for n in range(1, 13)] + [
    pr.product_group(pr.cyclic_group(a), pr.cyclic_group(b))
    for a, b in ((2, 2), (2, 4), (3, 3))
]


def _character_residual(pis, hmul, omega):
    chars = np.stack([pi[:, 0, 0] for pi in pis])
    return fd.maxabs(chars[:, :, None] * chars[:, None, :] - omega.conj() * chars[:, hmul])


@st.composite
def coboundary_cocycles(draw):
    """(H's table, omega) for an abelian H and omega(h, k) =
    mu(h) mu(k) / mu(hk) with random phases mu, rounded to 12 digits as
    _realize_component rounds every cocycle."""
    group = draw(st.sampled_from(ABELIAN))
    turns = draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=group.order, max_size=group.order
    ))
    mu = np.exp(2j * np.pi * np.asarray(turns))
    omega = mu[:, None] * mu[None, :] / mu[group.mul]
    return group.mul, np.round(omega, 12) + 0.0


class TestTwistedCharacters:
    @settings(max_examples=120, deadline=None)
    @given(coboundary_cocycles())
    def test_match_the_wedderburn_route(self, case):
        hmul, omega = case
        got = pr._twisted_irreps(hmul, omega)
        try:
            want = sorted(pr._wedderburn_irreps(hmul, omega), key=pr._irrep_key)
        except kt.DecompositionError:
            # the oracle's refinement can fail to split near-equal
            # eigenvalues; such a draw tells nothing about the characters
            assume(False)
        assert [pi.shape for pi in got] == [(len(hmul), 1, 1)] * len(hmul)
        assert [pi.shape for pi in want] == [pi.shape for pi in got]
        assert max(fd.maxabs(a - b) for a, b in zip(got, want)) <= 1e-12
        # a rounded cocycle is a cocycle only up to its rounding, which
        # bounds how multiplicative any characters can be: the oracle's
        # own residual reaches about 1.2e-12
        resid = _character_residual(got, hmul, omega)
        assert resid <= max(1e-12, _character_residual(want, hmul, omega) + 1e-14)

    @pytest.mark.parametrize(
        "group, omega",
        [
            (pr.symmetric_group(3), np.ones((6, 6), dtype=complex)),
            # u_(a,b) = Z^a X^b: omega((a, b), (a', b')) = (-1)^(b a')
            (
                pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2)),
                np.array([[(-1.0) ** (x % 2 * (y // 2)) for y in range(4)] for x in range(4)])
                + 0j,
            ),
        ],
        ids=["s3", "z2xz2-xz"],
    )
    def test_noncommutative_algebras_take_wedderburn(self, group, omega, monkeypatch):
        seen = []
        decompose = kt.wedderburn

        def counted(basis, *args):
            seen.append(basis[0].shape.side)
            return decompose(basis, *args)

        monkeypatch.setattr(kt, "wedderburn", counted)
        irreps = pr._twisted_irreps(group.mul, omega)
        assert seen == [group.order]
        assert sum(len(pi[0]) ** 2 for pi in irreps) == group.order
        assert max(len(pi[0]) for pi in irreps) == 2

    def test_non_multiplicative_characters_are_refused(self, monkeypatch):
        monkeypatch.setattr(pr, "TRANSPORT_TOL", -1.0)
        with pytest.raises(pr.RealizationFault, match="not multiplicative"):
            pr._twisted_irreps(pr.cyclic_group(3).mul, np.ones((3, 3), dtype=complex))

    def test_nan_characters_are_refused(self):
        # omega(1, 1) = 0 gives chi(1) = 0, and the mean over k then
        # divides by it: the characters are NaN, which the check fails
        omega = np.ones((2, 2), dtype=complex)
        omega[1, 1] = 0.0
        with np.errstate(all="ignore"), pytest.raises(pr.RealizationFault, match="nan"):
            pr._twisted_irreps(pr.cyclic_group(2).mul, omega)
