"""End-to-end guarantees of the package, one test per guarantee.

Each test exercises the public API the way a downstream user would and
checks the result against an independent computation: closed-form
oracles, direct numpy rank/norm arithmetic, or frozen values derived by
hand. Tolerances are stated inline.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import ktheory as kt
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import spectra as sp
from gradedcstar import workbench as wb

from character_references import match_characters
from element_references import component_minimal_projections
from test_products import tensor, tensor_intersection_dims

SEED = 20260822


def _sample(spec, count=50):
    # same seed per spec so independent tests can share one sample
    rng = np.random.default_rng(SEED + 101 * spec.total_dim + spec.L.n)
    return [spec.random_element(rng) for _ in range(count)]


def _rank(m, tol=1e-8):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, float(sv[0]))))


def test_norm_satisfies_cstar_identity_on_random_samples(corpus):
    assert len(corpus) >= 5
    for spec in corpus.values():
        for x in _sample(spec):
            n = gr.gnorm(spec, x)
            lhs = gr.gnorm(spec, gr.gmul(gr.gadjoint(x), x))
            assert abs(lhs - n * n) <= 1e-8 * (1 + n * n)


def test_readme_example_runs():
    # the README's Python block, as written, and the C*-identity it claims
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    ns = {}
    exec(block, ns)
    spec, x = ns["spec"], ns["x"]
    lhs = gr.gnorm(spec, gr.gmul(gr.gadjoint(x), x))
    assert lhs == pytest.approx(gr.gnorm(spec, x) ** 2, rel=1e-12)


def test_norm_matches_block_decomposition_of_faithful_image(corpus):
    for spec in corpus.values():
        images = [
            gr.faithful_image(spec, spec.basis_element(i, a))
            for i, a, _ in spec.graded_basis()
        ]
        data = kt.wedderburn(images)
        for x in _sample(spec):
            direct = gr.gnorm(spec, x)
            block = fd.op_norm(data.coordinates(gr.faithful_image(spec, x)))
            assert abs(direct - block) <= 1e-8 * (1 + direct)


def test_structure_maps_survive_pairing_round_trip(corpus):
    for spec in corpus.values():
        back = gr.phi_from_q(gr.q_family_from_spec(spec))
        for i, j in spec.L.comparable_pairs():
            assert (i, j) in back
            diff = back[(i, j)].matrix - spec.structure_map(i, j).matrix
            assert (np.abs(diff).max() if diff.size else 0.0) <= 1e-10


def test_upset_projections_split_exactly(corpus):
    for spec in corpus.values():
        for k in range(spec.L.n):
            M = spec.L.finishing_set(k)
            split = gr.FinishingSplit(spec, M)
            sub = split.sub_spec
            # section followed by projection is the identity, exactly
            for i, a, _ in sub.graded_basis():
                y = sub.basis_element(i, a)
                z = split.p(split.sigma(y))
                assert np.array_equal(gr.to_gvector(z), gr.to_gvector(y))
            # p is multiplicative on every basis pair
            for i, a, _ in spec.graded_basis():
                x = spec.basis_element(i, a)
                for j, b, _ in spec.graded_basis():
                    y = spec.basis_element(j, b)
                    lhs = split.p(gr.gmul(x, y))
                    rhs = gr.gmul(split.p(x), split.p(y))
                    assert np.linalg.norm(gr.to_gvector(lhs - rhs)) <= 1e-9
            cols = np.stack(
                [
                    gr.to_gvector(split.p(spec.basis_element(i, a)))
                    for i, a, _ in spec.graded_basis()
                ],
                axis=1,
            )
            dropped = sum(
                spec.components[i].dim for i in range(spec.L.n) if i not in M
            )
            assert spec.total_dim - _rank(cols) == dropped
            assert split.kernel_dim == dropped


def test_character_counts_match_finishing_subsemilattices(corpus):
    diamond = corpus["all-scalar-diamond"]
    assert len(sp.graded_characters(diamond)) == 4
    pairs = sp.finishing_correspondence(diamond)
    sets = {m for _, m in pairs}
    assert len(pairs) == 4 and len(sets) == 4 and all(sets)
    for n in range(2, 9):
        chain_spec = corpus[f"all-scalar-chain{n}"]
        assert len(sp.graded_characters(chain_spec)) == n
    commutative = 0
    for spec in corpus.values():
        if not gr.total_commutative(spec):
            continue
        commutative += 1
        got = sp.graded_characters(spec)
        oracle = sp.brute_force_characters(spec, seed=SEED)
        match_characters(got, oracle, tol=1e-8)  # raises on any mismatch
        if all(c.blocks == (1,) for c in spec.components):
            # same characters, in the oracle's order
            pairs = sp.finishing_correspondence(spec)
            assert len(pairs) == len(oracle)
            for (ch, _), want in zip(pairs, oracle):
                assert np.abs(ch.values - want.values).max() <= 1e-8
    assert commutative == 9


def test_restriction_map_matches_hand_computed_contraction(corpus):
    # diamond indices: 0 bottom, 1 and 2 the middle pair, 3 top
    spec = corpus["all-scalar-diamond"]
    rep = sp.restriction_spectrum_map(spec, [1, 3])
    assert rep.contraction == {0: 1, 1: 1, 2: 3, 3: 3}
    assert len(rep.assignments) == 4
    for src, dst in rep.assignments:
        assert dst.tag[0] == rep.remap[rep.contraction[src.tag[0]]]


def test_k0_invariants_verified_across_constructions(corpus):
    outputs = dict(corpus)
    outputs["tensor-a"] = tensor(
        corpus["m2-chain"], corpus["all-scalar-chain2"]
    )
    outputs["tensor-b"] = tensor(
        corpus["all-scalar-diamond"], corpus["all-scalar-chain2"]
    )
    z2 = pr.cyclic_group(2)
    outputs["crossed-trivial"] = pr.crossed_product(
        pr.trivial_action(z2, corpus["m2-chain"])
    )
    _, z4_act = wb.build_coset_spec(*wb.coset_z4_family())
    outputs["crossed-coset"] = pr.crossed_product(z4_act)
    for spec in outputs.values():
        rep = kt.verify_k0(spec)  # raises on a non-integral or singular map
        assert rep.unimodular and rep.k1_total_rank == 0
        assert rep.total_rank == sum(c.nblocks for c in spec.components)
        # the Wedderburn route: decompose the faithful image numerically
        # and read each generator's ranks off the decomposition
        images = [
            gr.faithful_image(spec, spec.basis_element(i, a))
            for i, a, _ in spec.graded_basis()
        ]
        data = kt.wedderburn(images)
        assert len(data.block_dims) == rep.total_rank
        oracle = [
            data.projection_ranks(gr.faithful_image(spec, p))
            for _, _, p in component_minimal_projections(spec)
        ]
        assert rep.phi_matrix == oracle
    frozen = kt.verify_k0(corpus["m2-chain"])
    assert [list(row) for row in frozen.phi_matrix] == [[1, 0], [2, 1]]


def test_group_algebra_crossed_products_collapse_to_matrices():
    groups = [
        pr.cyclic_group(2),
        pr.cyclic_group(3),
        pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2)),
        pr.symmetric_group(3),
    ]
    for g in groups:
        functions, translation = wb.build_coset_spec(g, [{g.identity}])
        out = pr.crossed_product(translation)
        assert out.components[0].blocks == (g.order,)
        gr.validate_spec(out)
        assert out.total_dim == g.order * functions.total_dim
    # point stabilizers of unequal sizes produce matrices over the
    # stabilizer group algebras, component by component
    for family, blocks in [
        (wb.coset_z4_family(), [(4,), (2, 2), (1, 1, 1, 1)]),
        (wb.coset_s3_family(), [(6,), (3, 3), (2, 2, 2), (2, 1, 1)]),
    ]:
        group, _ = family
        base, act = wb.build_coset_spec(*family)
        out = pr.crossed_product(act)
        gr.validate_spec(out)
        assert out.total_dim == group.order * base.total_dim
        got = [sorted(c.blocks, reverse=True) for c in out.components]
        assert got == [sorted(b, reverse=True) for b in blocks]


def test_tensor_products_validate_and_multiply(corpus):
    pairs = [
        (corpus["m2-chain"], corpus["all-scalar-chain2"]),
        (corpus["all-scalar-diamond"], corpus["all-scalar-chain2"]),
        (corpus["m2-chain"], corpus["m2-chain"]),
    ]
    for a, b in pairs:
        t = tensor(a, b)
        report = gr.validate_spec(t)
        assert report.pairs_checked > 0
        assert t.total_dim == a.total_dim * b.total_dim
        for k in range(t.L.n):
            i, j = divmod(k, b.L.n)
            assert t.components[k].dim == (
                a.components[i].dim * b.components[j].dim
            )
        for l in range(a.L.n):
            for m in range(b.L.n):
                du, dv, inter, both = tensor_intersection_dims(a, b, t, l, m)
                assert inter == both
        assert gr.total_commutative(t) == (
            gr.total_commutative(a) and gr.total_commutative(b)
        )


def test_surface_genus_table_and_orbit_counts():
    table = {2: (1, False), 3: (1, True), 4: (2, False), 5: (2, True)}
    for n, (genus, pinched) in table.items():
        rep = sp.genus_of_line_arrangement(n)
        assert (rep.genus, rep.pinched) == (genus, pinched)
    for n in range(2, 51):
        rep = sp.genus_of_line_arrangement(n)
        assert rep.vertex_orbits == math.gcd(n - 1, 2 * n)


def _morphism_suite(corpus):
    m2chain = corpus["m2-chain"]
    mixed = corpus["mixed-diamond"]
    diamond = corpus["all-scalar-diamond"]
    chain2 = corpus["all-scalar-chain2"]

    def endo(spec, mats):
        psi = [
            gr.StarHom(c, c, np.asarray(m, dtype=complex))
            for c, m in zip(spec.components, mats)
        ]
        return gr.build_morphism(spec, spec, psi)

    th = 0.6
    u = np.array(
        [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex
    )

    # chain with a zero connecting map admits a one-sided kill
    m2 = fd.AlgebraShape([2])
    scalar = fd.AlgebraShape([1])
    decoupled = gr.GradedSpec(
        sl.chain(2),
        [scalar, m2],
        {(0, 1): gr.StarHom(m2, scalar, np.zeros((1, 4)))},
    )
    partial = gr.build_morphism(
        decoupled,
        decoupled,
        [
            gr.StarHom(scalar, scalar, np.eye(1, dtype=complex)),
            gr.StarHom(m2, m2, np.zeros((4, 4), dtype=complex)),
        ],
    )

    inclusion = gr.build_morphism(
        chain2,
        m2chain,
        [
            gr.StarHom(
                chain2.components[0],
                m2chain.components[0],
                np.eye(2, dtype=complex).reshape(4, 1),
            ),
            gr.StarHom(
                chain2.components[1], m2chain.components[1], np.eye(1)
            ),
        ],
    )

    def onto_bottom(spec):
        psi = [spec.structure_map(0, j) for j in range(spec.L.n)]
        return gr.build_morphism(spec, spec.components[0], psi)

    return [
        ("identity", endo(m2chain, [np.eye(4), np.eye(1)])),
        ("zero", endo(m2chain, [np.zeros((4, 4)), np.zeros((1, 1))])),
        ("conjugation", endo(m2chain, [np.kron(u, u.conj()), np.eye(1)])),
        ("inclusion", inclusion),
        ("partial-kill", partial),
        ("faithful-m2-chain", gr.faithful_morphism(m2chain)),
        ("faithful-mixed-diamond", gr.faithful_morphism(mixed)),
        ("onto-bottom", onto_bottom(m2chain)),
        ("coset-z4", wb.coset_pullback_morphism(*wb.coset_z4_family())),
        ("coset-s3", wb.coset_pullback_morphism(*wb.coset_s3_family())),
    ]


def test_morphism_analysis_agrees_with_direct_rank_checks(corpus):
    suite = _morphism_suite(corpus)
    assert len(suite) == 10
    for name, m in suite:
        verdict = gr.analyze_morphism(m)
        total = m.total_matrix()
        rank = _rank(total)
        ker_total = m.source.total_dim - rank
        assert verdict.injective == (ker_total == 0), name
        assert verdict.surjective == (rank == m.target_dim()), name
        assert verdict.total_kernel_dim == ker_total, name
        direct_kers = [
            h.source.dim - _rank(h.matrix) for h in m.psi
        ]
        assert list(verdict.ker_dims) == direct_kers, name
        if name.startswith("coset"):
            assert verdict.total_kernel_dim > 0, name


def test_graded_morphism_kernels_decompose_componentwise(corpus):
    graded_cases = [
        (name, m) for name, m in _morphism_suite(corpus) if m.graded_target
    ]
    assert len(graded_cases) == 5
    for name, m in graded_cases:
        ker_total = m.source.total_dim - _rank(m.total_matrix())
        per_component = sum(h.source.dim - _rank(h.matrix) for h in m.psi)
        assert ker_total == per_component, name
