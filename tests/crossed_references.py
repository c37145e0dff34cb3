"""Oracles for crossed products: the Wedderburn route and the per-pair
transport identity.

products._realize_component builds each convolution algebra's blocks
exactly, orbit by orbit, from the block permutation, the stabilizers and
their twisted group algebras. The first oracle is the route it replaced:
decompose the left-regular representation of C(G, A_i) numerically with
ktheory.wedderburn. Both must find the same algebra, so the same block
shapes and, once the blocks are matched, the same K0 generator matrix.

products._check_transport checks one product identity per index; the
second oracle, transport_reference, checks the identity for every ordered
pair of indices through the output's structure maps and the input's q
family, as the package once did. build_crossed_product's docstring proves
that the per-index identities imply it.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr


def transport_reference(act, out, reals, tol=pr.TRANSPORT_TOL):
    """The realizations carry convolution to the output's products and
    adjoints, across every ordered pair of indices.

    R_i is reals[i].matrix, with columns d_s (x) E_a in group-element-major
    order. Product identity, once per ordered pair (i, j) with k = i ^ j,
    over every (s, a, t, b) at once:
    phi'_ki(R_i(d_s (x) E_a)) phi'_kj(R_j(d_t (x) E_b))
    = R_k(d_st (x) q_ij(E_a, alpha_s(E_b))), with phi' the output's maps
    and q_ij the input's bilinear family. Star identity, once per index:
    R_i(d_{s^-1} (x) alpha_{s^-1}(E_a*)) = R_i(d_s (x) E_a)*. Returns the
    largest residual; raises TransportMismatch above tol.
    """
    spec = act.spec
    group = act.group
    g = group.order
    L = spec.L
    mul, inv = group.mul, group.inverse
    alpha = [
        np.stack([act.maps[(s, i)].matrix for s in range(g)])
        for i in range(L.n)
    ]
    # blocks[i][p, s, a] is entry p of R_i(d_s (x) E_a)
    blocks = [
        re.matrix.reshape(re.matrix.shape[0], g, c.dim)
        for re, c in zip(reals, spec.components)
    ]
    q = gr.q_family_from_spec(spec).tensors
    resids = []
    for i in range(L.n):
        if spec.components[i].dim == 0:
            continue
        star = np.einsum(
            "psn,sna->psa",
            blocks[i][:, inv],
            alpha[i][inv][:, :, fd.adjoint_permutation(spec.components[i])],
        )
        adj = np.conj(reals[i].matrix)[fd.adjoint_permutation(out.components[i])]
        resids.append(fd.maxabs(star.reshape(adj.shape) - adj))
        for j in range(L.n):
            k = L.meet[i, j]
            if 0 in (spec.components[j].dim, spec.components[k].dim):
                continue
            got = fd.pair_products(
                out.components[k],
                out.pi_block(k, i) @ reals[i].matrix,
                out.pi_block(k, j) @ reals[j].matrix,
            )
            want = np.einsum(
                "nam,smb,pstn->satbp", q[(i, j)], alpha[j], blocks[k][:, mul],
                optimize=True,
            )
            resids.append(fd.maxabs(got - want.reshape(got.shape)))
    worst = fd.maxabs(resids)
    if not worst <= tol:
        raise pr.TransportMismatch(
            f"output products deviate from convolution by {worst:.3e}"
        )
    return worst


def left_translation_matrix(group, s):
    g = group.order
    u = np.zeros((g, g))
    u[[group.mul[s][rp] for rp in range(g)], np.arange(g)] = 1.0
    return u


def regular_span(act, i):
    """The left-regular images of d_s (x) E_b, group-element major.

    The carrier is group-many copies of component i's ambient space; a
    coefficient acts in copy r through the inverse group element's
    automorphism, and a group element permutes the copies.
    """
    group = act.group
    g = group.order
    shape = act.spec.components[i]
    d, side = shape.dim, shape.side
    rows, cols = fd.ambient_index_maps(shape)
    big = g * side
    rho = np.zeros((d, big, big), dtype=complex)
    for r in range(g):
        # rho[b] in copy r is the ambient matrix of alpha_{r^-1}(E_b)
        copy = rho[:, r * side : (r + 1) * side, r * side : (r + 1) * side]
        copy[:, rows, cols] = act.maps[(group.inverse[r], i)].matrix.T
    ambient = fd.AlgebraShape([big])
    elems = []
    for s in range(g):
        ubig = np.kron(left_translation_matrix(group, s), np.eye(side))
        for b in range(d):
            elems.append(fd.AlgElement(ambient, [rho[b] @ ubig]))
    return elems


def wedderburn_realization(act, i):
    """Block shape and coordinate change of one convolution algebra, from
    wedderburn on its left-regular span."""
    d = act.spec.components[i].dim
    if d == 0:
        empty = fd.AlgebraShape(())
        return pr.ComponentRealization(0, empty, np.zeros((0, 0)), np.zeros((0, 0)))
    g = act.group.order
    elems = regular_span(act, i)
    data = kt.wedderburn(elems)
    if data.span_dim != g * d:
        raise pr.RealizationFault(
            f"regular representation of index {i} spans {data.span_dim} "
            f"dimensions, expected {g * d}"
        )
    mat = np.stack([fd.to_vector(data.coordinates(x)) for x in elems], axis=1)
    return pr.ComponentRealization(g * d, data.shape, mat, np.linalg.inv(mat))


def block_matching(real, oracle, tol=1e-7):
    """perm[c]: the oracle block that real's block c is, found by carrying
    the unit of block c back to convolution coordinates and into the
    oracle's blocks, where it must be the unit of exactly one block."""
    perm = []
    for c, (d, off) in enumerate(zip(real.shape.blocks, real.shape.block_offsets())):
        unit = np.zeros(real.shape.dim, dtype=complex)
        unit[off + np.arange(d) * (d + 1)] = 1.0
        image = oracle.matrix @ (real.inverse @ unit)
        hits = []
        for k, (dk, ok) in enumerate(zip(oracle.shape.blocks, oracle.shape.block_offsets())):
            want = np.zeros(oracle.shape.dim, dtype=complex)
            want[ok + np.arange(dk) * (dk + 1)] = 1.0
            if fd.maxabs(image - want) <= tol:
                hits.append(k)
        assert len(hits) == 1, f"block {c} matches oracle blocks {hits}"
        assert oracle.shape.blocks[hits[0]] == d
        perm.append(hits[0])
    assert sorted(perm) == list(range(oracle.shape.nblocks))
    return perm


def assert_matches_oracle(cp):
    """cp, from build_crossed_product, has the oracle's block shapes on
    every index and the oracle's K0 generator matrix up to the matching of
    their blocks."""
    act = cp.action
    oracle = [wedderburn_realization(act, i) for i in range(act.spec.L.n)]
    rows, start = [], 0  # cp's generator -> the oracle's row
    for real, ref in zip(cp.realizations, oracle):
        assert sorted(real.shape.blocks) == sorted(ref.shape.blocks)
        if real.conv_dim:
            rows.extend(start + k for k in block_matching(real, ref))
        start += ref.shape.nblocks
    got = np.array(kt.verify_k0(cp.spec).phi_matrix, dtype=int).reshape(len(rows), len(rows))
    ref_spec = pr._crossed_spec(act.spec, act.group.order, oracle)
    want = np.array(kt.verify_k0(ref_spec).phi_matrix, dtype=int).reshape(len(rows), len(rows))
    assert np.array_equal(got, want[np.ix_(rows, rows)])
