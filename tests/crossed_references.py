"""The Wedderburn route to crossed products, kept as a test oracle.

products._realize_component builds each convolution algebra's blocks
exactly, orbit by orbit, from the block permutation, the stabilizers and
their twisted group algebras. This is the route it replaced: decompose the
left-regular representation of C(G, A_i) numerically with
ktheory.wedderburn. Both must find the same algebra, so the same block
shapes and, once the blocks are matched, the same K0 generator matrix.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import ktheory as kt
from gradedcstar import products as pr


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
