"""The element-at-a-time routes that ktheory.verify_k0 and
graded.verify_ideal_gradation replaced, kept as test oracles.

verify_k0 now gathers every generator's block traces from the matrix Pi
at once and multiplies per-index determinants; the reference builds one
graded element per generator, takes its faithful image block by block and
runs one fraction-free elimination over the whole matrix.
The k0 reference raises the same exceptions with the same messages on
finite input. On non-finite input the routes differ: the element route
computes pi @ x, where inf * 0 and nan * 0 spread a non-finite entry
across its row.

verify_ideal_gradation now validates the spec and reads one slice of pi:
the rows outside the selected blocks, the columns inside them. The
reference multiplies basis elements with gmul, both ways round, and
names the first product that leaves the selected blocks. On a spec that
validates the two accept the same selections; their messages differ.
The leak loop accumulates with max(), which drops a NaN leak.

sort_key is the per-entry key that spectra used to order characters.
"""

import numpy as np

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt


def component_minimal_projections(spec):
    """(index, block, element) for the top-left matrix unit of every block
    of every component: one rank-map generator each, in row order."""
    out = []
    for i, c in enumerate(spec.components):
        for b in range(c.nblocks):
            x = spec.zero_element()
            x.comps[i].mats[b][0, 0] = 1.0
            out.append((i, b, x))
    return out


def k0_matrix_reference(spec):
    """The generator matrix, one faithful image per generator."""
    phi_matrix = []
    for i, b, p in component_minimal_projections(spec):
        image = gr.faithful_image(spec, p)
        phi_matrix.append(
            [
                kt._nearest_integer(
                    float(np.trace(m).real),
                    f"trace of block {c} of the image of generator "
                    f"({spec.L.names[i]}, {b})",
                )
                for c, m in enumerate(image.mats)
            ]
        )
    return phi_matrix


def verify_k0_reference(spec):
    per_component = [c.nblocks for c in spec.components]
    phi_matrix = k0_matrix_reference(spec)
    det = kt._integer_det(phi_matrix)
    if abs(det) != 1:
        raise kt.NotUnimodular(f"rank matrix has determinant {det}, not +-1")
    return kt.K0Report(per_component, sum(per_component), phi_matrix, True)


def ideal_leak_reference(spec, ideal_blocks, tol=gr.AXIOM_TOL, products=None):
    """The largest leak of a product of a basis element with an ideal
    basis element out of the selected blocks; raises NotAnIdeal on the
    first product that leaks by more than tol. products, when given, is a
    dict that keeps each gmul product's support and blocks across calls
    on the same spec, so that many selections cost one pass of gmul."""
    selection = {
        i: frozenset(ideal_blocks.get(i, ())) for i in range(spec.L.n)
    }
    products = {} if products is None else products

    def in_ideal(i, a):
        k, _, _ = spec.components[i].basis_triples()[a]
        return k in selection[i]

    def product(x, y):
        """(index, blocks) over the support of gmul(E_x, E_y)."""
        if (x, y) not in products:
            prod = gr.gmul(spec.basis_element(*x), spec.basis_element(*y))
            products[(x, y)] = [(k, prod.comps[k].mats) for k in prod.support(tol=0.0)]
        return products[(x, y)]

    ideal_basis = [(i, a) for i, a, _ in spec.graded_basis() if in_ideal(i, a)]
    max_leak = 0.0
    for i, a, _ in spec.graded_basis():
        for j, b in ideal_basis:
            for prod in (product((i, a), (j, b)), product((j, b), (i, a))):
                leak = 0.0
                for k, mats in prod:
                    for blk, m in enumerate(mats):
                        if blk not in selection[k]:
                            leak = max(leak, fd.maxabs(m))
                max_leak = max(max_leak, leak)
                if not leak <= tol:
                    raise gr.NotAnIdeal(
                        f"product of {spec.basis_label(i, a)} and "
                        f"{spec.basis_label(j, b)} leaves the selected blocks "
                        f"by {leak:.3e}"
                    )
    return max_leak


def sort_key(values):
    return tuple(
        (round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0) for v in values
    )
