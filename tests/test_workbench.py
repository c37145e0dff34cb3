"""Documents, builders, reports."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedcstar import cli
from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import GradedCstarError, InputError

from conftest import SCALAR, standard_corpus


def rotated_chain_spec():
    # chain with a conjugated diagonal embedding, to exercise float
    # entries that do not have short decimal expansions
    c, s = np.cos(0.7), np.sin(0.7)
    u = np.array([[c, -s], [s, c]])
    m2 = fd.AlgebraShape([2])
    c2 = fd.AlgebraShape([1, 1])
    cols = []
    for k in range(2):
        d = np.zeros((2, 2))
        d[k, k] = 1.0
        cols.append((u @ d @ u.T).reshape(-1))
    h = fd.StarHom(c2, m2, np.stack(cols, axis=1))
    spec = gr.GradedSpec(sl.chain(2), [m2, c2], {(0, 1): h})
    gr.validate_spec(spec)
    return spec


class TestSpecDocuments:
    @pytest.mark.parametrize(
        "name", ["all-scalar-diamond", "m2-chain", "coset-z4", "chain-3"]
    )
    def test_round_trip_is_bit_exact(self, name):
        spec = wb.demo_spec(name)
        doc = json.loads(json.dumps(wb.spec_to_document(spec)))
        back = wb.document_to_spec(doc)
        assert back.L.names == spec.L.names
        assert np.array_equal(back.L.meet, spec.L.meet)
        assert tuple(back.components) == tuple(spec.components)
        assert set(back.phi) == set(spec.phi)
        for key in spec.phi:
            assert np.array_equal(back.phi[key].matrix, spec.phi[key].matrix)

    def test_round_trip_keeps_pi_byte_for_byte(self):
        # every corpus spec and every builder's output
        z4, z4_action = wb.build_coset_spec(*wb.coset_z4_family())
        s3, s3_action = wb.build_coset_spec(*wb.coset_s3_family())
        mixed = standard_corpus()["mixed-diamond"]
        specs = {
            **standard_corpus(),
            "all-scalar chain(6)": wb.build_all_scalar(sl.chain(6)),
            "coset-z4": z4,
            "coset-s3": s3,
            "m2-chain demo": wb.demo_spec("m2-chain"),
            "rotated": rotated_chain_spec(),
            "z4 x m2": pr.tensor_spec(z4, wb.demo_spec("m2-chain")),
            "diamond x mixed": pr.tensor_spec(wb.demo_spec("all-scalar-diamond"), mixed),
            "restricted s3": gr.restrict_spec(s3, [0, 1, 3])[0],
            "crossed z4": pr.crossed_product(z4_action),
            "crossed s3": pr.crossed_product(s3_action),
            "quotient": gr.verify_ideal_gradation(mixed, {0: [0]}).quotient,
            "from q": gr.spec_from_q(gr.q_family_from_spec(mixed)),
        }
        for name, spec in specs.items():
            doc = json.loads(json.dumps(wb.spec_to_document(spec)))
            assert wb.parse_spec(doc).pi.tobytes() == spec.pi.tobytes(), name

    def test_round_trip_keeps_long_floats(self):
        spec = rotated_chain_spec()
        doc = json.loads(json.dumps(wb.spec_to_document(spec)))
        back = wb.document_to_spec(doc)
        assert np.array_equal(back.phi[(0, 1)].matrix, spec.phi[(0, 1)].matrix)

    def test_metadata_carried(self):
        doc = wb.spec_to_document(
            wb.demo_spec("chain-2"), metadata={"label": "demo"}
        )
        assert doc["metadata"] == {"label": "demo"}
        wb.document_to_spec(doc)

    def test_missing_section_located(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        del doc["components"]
        with pytest.raises(wb.DocumentError, match="components"):
            wb.document_to_spec(doc)

    def test_unknown_phi_name_located(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["phi"][0]["from"] = "zz"
        with pytest.raises(wb.DocumentError, match=r"phi\[0\].*zz"):
            wb.document_to_spec(doc)

    def test_duplicate_phi_pair_rejected(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["phi"].append(dict(doc["phi"][0]))
        with pytest.raises(wb.DocumentError, match="duplicate"):
            wb.document_to_spec(doc)

    def test_diagonal_phi_rejected(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["phi"][0]["from"] = doc["phi"][0]["to"]
        with pytest.raises(wb.DocumentError, match="implicit"):
            wb.document_to_spec(doc)

    def test_wrong_direction_rejected(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        entry = doc["phi"][0]
        entry["from"], entry["to"] = entry["to"], entry["from"]
        with pytest.raises(wb.DocumentError, match="not below"):
            wb.document_to_spec(doc)

    def test_bad_matrix_shape_located(self):
        doc = wb.spec_to_document(wb.demo_spec("m2-chain"))
        doc["phi"][0]["matrix"] = [[[1.0, 0.0]]]
        with pytest.raises(wb.DocumentError, match="expected 4 rows"):
            wb.document_to_spec(doc)

    def test_bad_entry_located(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["phi"][0]["matrix"] = [["x"]]
        with pytest.raises(wb.DocumentError, match=r"\[re, im\]"):
            wb.document_to_spec(doc)

    def test_component_name_mismatch(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["components"]["extra"] = [1]
        with pytest.raises(wb.DocumentError, match="unrecognized"):
            wb.document_to_spec(doc)

    def test_bad_closure_mode(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        doc["closure"] = "magic"
        with pytest.raises(wb.DocumentError, match="closure"):
            wb.document_to_spec(doc)

    def test_validation_failure_passes_through(self):
        doc = wb.spec_to_document(wb.demo_spec("all-scalar-diamond"))
        doc["phi"][0]["matrix"] = [[[2.0, 0.0]]]
        with pytest.raises(gr.HomNotStar):
            wb.document_to_spec(doc)

    def test_parse_spec_skips_the_axioms(self):
        doc = wb.spec_to_document(wb.demo_spec("all-scalar-diamond"))
        doc["phi"][0]["matrix"] = [[[2.0, 0.0]]]
        spec = wb.parse_spec(doc)
        assert spec.phi[(0, 1)].matrix[0, 0] == 2.0
        with pytest.raises(gr.HomNotStar):
            gr.validate_spec(spec)


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308, 0.1]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def spec_documents(draw):
    """The document of a spec over a small semilattice with drawn names
    (any text), drawn block lists (zero algebras included) and a pi of
    drawn magnitudes, NaN, the infinities and signed zeros among them,
    with or without drawn metadata. The spec is not valid; only its
    document is rendered."""
    L = draw(st.sampled_from([
        sl.chain(1), sl.chain(3), sl.diamond(), sl.antichain_with_bottom(2),
        sl.product_semilattice(sl.chain(2), sl.chain(2)),
    ]))
    names = draw(st.lists(st.text(max_size=4), min_size=L.n, max_size=L.n, unique=True))
    L = sl.Semilattice(L.meet, names)
    comps = [fd.AlgebraShape(draw(st.lists(st.integers(1, 2), max_size=2))) for _ in range(L.n)]
    owner = gr._owners(comps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = owner.size
    with np.errstate(over="ignore"):
        parts = rng.standard_normal((2, n, n)) * 10.0 ** rng.integers(-320, 309, (2, n, n))
    special = rng.random((2, n, n)) < draw(st.sampled_from([0.0, 0.2]))
    parts[special] = rng.choice(SPECIAL_FLOATS, special.sum())
    values = np.empty((n, n), dtype=complex)
    values.real, values.imag = parts
    pi = np.where(L.le[np.ix_(owner, owner)], values, 0)
    spec = gr.GradedSpec.from_pi(L, comps, pi)
    metadata = draw(st.none() | st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3))
    return wb.spec_to_document(spec, metadata)


class TestRendering:
    @settings(max_examples=150, deadline=None)
    @given(spec_documents())
    def test_renderer_matches_json(self, doc):
        assert wb.dumps_spec_document(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("name", [n for n in wb.DEMO_NAMES if n != "chain-<n>"] + ["chain-3"])
    def test_demos(self, name):
        doc = wb.spec_to_document(wb.demo_spec(name))
        assert wb.dumps_spec_document(doc) == json.dumps(doc, indent=2)

    def test_non_finite_entries_read_as_json_writes_them(self, tmp_path):
        h = fd.StarHom(SCALAR, SCALAR, np.array([[complex(np.nan, -np.inf)]]))
        k = fd.StarHom(SCALAR, SCALAR, np.array([[complex(np.inf, -0.0)]]))
        spec = gr.GradedSpec(sl.chain(3), [SCALAR] * 3, {(0, 1): h, (1, 2): k, (0, 2): h})
        doc = wb.spec_to_document(spec)
        text = wb.dumps_spec_document(doc)
        assert text == json.dumps(doc, indent=2)
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text
        wb.save_document(doc, tmp_path / "d.json")
        assert (tmp_path / "d.json").read_text() == text + "\n"


class TestChainClosure:
    def covering_doc(self):
        full = wb.spec_to_document(wb.build_all_scalar(sl.diamond()))
        covers = {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}
        full["phi"] = [
            e for e in full["phi"] if (e["to"], e["from"]) in covers
        ]
        assert len(full["phi"]) == 4
        full["closure"] = "chains"
        return full

    def test_closure_completes_covering_pairs(self):
        spec = wb.document_to_spec(self.covering_doc())
        want = wb.build_all_scalar(sl.diamond())
        assert set(spec.phi) == set(want.phi)
        assert np.array_equal(spec.phi[(0, 3)].matrix, np.eye(1))

    def test_path_dependence_is_hard_error(self):
        doc = self.covering_doc()
        for e in doc["phi"]:
            if e["to"] == "a" and e["from"] == "1":
                e["matrix"] = [[[0.0, 0.0]]]  # valid hom, breaks agreement
        with pytest.raises(gr.PathDependence):
            wb.document_to_spec(doc)

    def test_missing_cover_reported(self):
        doc = self.covering_doc()
        doc["phi"] = doc["phi"][1:]
        with pytest.raises(gr.MissingHom, match="covering"):
            wb.document_to_spec(doc)


class TestOtherDocuments:
    def test_group_round_trip(self):
        g = pr.symmetric_group(3)
        back = wb.document_to_group(json.loads(json.dumps(wb.group_to_document(g))))
        assert np.array_equal(back.mul, g.mul)
        assert back.names == g.names

    def test_table_documents_keep_their_bytes(self):
        # the tables are arrays; their documents hold the same JSON ints
        L = sl.product_semilattice(sl.chain(3), sl.diamond())
        doc = json.dumps(wb.spec_to_document(wb.build_all_scalar(L)))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "b606c5258f5004f4e5d5dde4e10732a03b9623b8bbc28d7877997c44075311dc"
        )
        assert json.dumps(wb.group_to_document(pr.symmetric_group(3))) == (
            '{"format": "gradedcstar-group", "names": ["012", "021", "102", "120", "201", '
            '"210"], "mul": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4], '
            '[3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]}'
        )

    def test_messages_show_no_numpy_scalars(self):
        # numpy 2 prints np.int64(3) in a repr: no message may show one
        s3 = pr.symmetric_group(3)
        spec = wb.demo_spec("coset-s3")
        pi = np.array(wb.demo_spec("chain-4").pi)
        pi[0, 3] = 0
        broken = gr.GradedSpec.from_pi(sl.chain(4), [SCALAR] * 4, pi)
        calls = [
            lambda: sl.Semilattice(np.array([[0, 1], [0, 1]])),
            lambda: sl.Semilattice(np.array([[1, 0], [0, 1]])),
            lambda: sl.Semilattice(np.array([[0, 2, 0], [2, 1, 2], [0, 2, 2]])),
            lambda: sl.Semilattice(np.array([[0, 3], [0, 1]])),
            lambda: sl.Semilattice(np.array([[0.0, 0.0], [0.0, 1.0]])),
            lambda: pr.FiniteGroup(np.array([[0, 1], [1, 1]])),
            lambda: pr.FiniteGroup(np.array([[0, 1, 2], [1, 0, 0], [2, 1, 2]])),
            lambda: wb.build_coset_spec(s3, [{0, 3}, {0}]),
            lambda: wb.build_coset_spec(s3, [{0}, {0, 1, 3}]),
            lambda: gr.restrict_spec(spec, np.array([1, 2])),
            lambda: spec.structure_map(np.intp(3), np.intp(1)),
            lambda: spec.structure_map(np.intp(7), np.intp(1)),
            lambda: gr.validate_spec(broken, gr.AXIOM_TOL),
        ]
        for call in calls:
            with pytest.raises(GradedCstarError) as e:
                call()
            assert "np." not in str(e.value), str(e.value)

    def test_action_round_trip(self):
        spec, act = wb.build_coset_spec(*wb.coset_z4_family())
        doc = json.loads(json.dumps(wb.action_to_document(act)))
        back = wb.document_to_action(doc, act.group, spec)
        for key, h in act.maps.items():
            assert np.array_equal(back.maps[key].matrix, h.matrix)

    def test_element_round_trip(self):
        spec = wb.demo_spec("m2-chain")
        rng = np.random.default_rng(5)
        x = gr.GradedElement(
            spec, [fd.random_element(c, rng) for c in spec.components]
        )
        doc = json.loads(json.dumps(wb.element_to_document(x)))
        back = wb.document_to_element(doc, spec)
        for a, b in zip(x.comps, back.comps):
            assert np.array_equal(fd.to_vector(a), fd.to_vector(b))

    def test_element_defaults_to_zero(self):
        spec = wb.demo_spec("m2-chain")
        x = wb.document_to_element({"components": {}}, spec)
        assert all(fd.frob_norm(c) == 0 for c in x.comps)

    def test_element_unknown_name(self):
        spec = wb.demo_spec("m2-chain")
        with pytest.raises(wb.DocumentError, match="unknown index"):
            wb.document_to_element({"components": {"zz": [[1, 0]]}}, spec)

    def test_load_errors(self, tmp_path):
        with pytest.raises(wb.DocumentError, match="cannot read"):
            wb.load_document(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        with pytest.raises(wb.DocumentError, match="not valid JSON"):
            wb.load_document(bad)

    def test_digest_deterministic(self):
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        assert wb.document_digest(doc) == wb.document_digest(dict(doc))
        other = wb.spec_to_document(wb.demo_spec("chain-3"))
        assert wb.document_digest(doc) != wb.document_digest(other)


class TestReports:
    def test_render_stable_and_status(self):
        rep = wb.Report("0.0.1", "abcd", 7)
        rep.checks.append(wb.CheckResult("one", "pass", residual=1.5e-12))
        rep.checks.append(wb.CheckResult("two", "skip", detail="why"))
        text = rep.render()
        assert text == rep.render()
        assert "check one: pass (max residual 1.500e-12)" in text
        assert text.endswith("result: PASS")
        assert rep.passed()
        rep.checks.append(wb.CheckResult("three", "fail"))
        assert not rep.passed()
        assert rep.render().endswith("result: FAIL")


class TestBuilders:
    def test_all_scalar_shapes(self):
        spec = wb.build_all_scalar(sl.diamond())
        assert spec.total_dim == 4
        assert all(c.blocks == (1,) for c in spec.components)
        assert wb.build_all_scalar(sl.chain(1)).total_dim == 1

    def test_chain_norm_matches_step_functions(self):
        # the norm of a chain element equals the sup norm of the step
        # function with those coefficients, sampled once per plateau
        n = 6
        spec = wb.build_all_scalar(sl.chain(n))
        rng = np.random.default_rng(99)
        for _ in range(20):
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            x = gr.GradedElement(
                spec,
                [
                    fd.from_vector(spec.components[i], lam[i : i + 1])
                    for i in range(n)
                ],
            )
            plateaus = [abs(lam[k:].sum()) for k in range(n + 1)]
            assert gr.gnorm(spec, x) == pytest.approx(max(plateaus), abs=1e-10)

    def test_coset_z4_dims(self):
        spec, act = wb.build_coset_spec(*wb.coset_z4_family())
        assert [c.dim for c in spec.components] == [4, 2, 1]
        assert spec.L.names == ("{0}", "{0,2}", "{0,1,2,3}")
        assert act.group.order == 4

    def test_coset_s3_dims(self):
        spec, act = wb.build_coset_spec(*wb.coset_s3_family())
        assert [c.dim for c in spec.components] == [6, 3, 2, 1]

    def test_coset_pullback_matrix(self):
        spec, _ = wb.build_coset_spec(*wb.coset_z4_family())
        m = spec.phi[(0, 1)].matrix
        want = np.zeros((4, 2))
        want[[0, 2], 0] = 1.0  # coset {0,2} splits into points 0 and 2
        want[[1, 3], 1] = 1.0
        assert np.array_equal(m, want)

    def test_not_a_subgroup(self):
        with pytest.raises(wb.NotASubgroup):
            wb.build_coset_spec(pr.cyclic_group(4), [{0, 1}])
        with pytest.raises(wb.NotASubgroup):
            wb.build_coset_spec(pr.cyclic_group(4), [{1, 3}])

    def test_not_intersection_closed(self):
        v4 = pr.product_group(pr.cyclic_group(2), pr.cyclic_group(2))
        with pytest.raises(wb.NotIntersectionClosed):
            wb.build_coset_spec(v4, [{0, 1}, {0, 2}, {0, 1, 2, 3}])

    def test_duplicate_subgroups_rejected(self):
        with pytest.raises(InputError, match="duplicates"):
            wb.build_coset_spec(pr.cyclic_group(2), [{0}, {0}])

    def test_pullbacks_into_group_functions_lose_dimensions(self):
        mor = wb.coset_pullback_morphism(*wb.coset_z4_family())
        analysis = gr.analyze_morphism(mor)
        assert analysis.total_kernel_dim == 3
        assert not analysis.injective
        assert analysis.surjective

    def test_demo_names(self):
        with pytest.raises(InputError, match="unknown demo"):
            wb.demo_spec("nope")
        with pytest.raises(InputError, match="chain length"):
            wb.demo_spec("chain-x")


# ------------------------------------------- builders certify by construction

def small_semilattices():
    """Chains 1-8, the diamond and antichains with a bottom, 1-5 atoms."""
    return (
        [sl.chain(n) for n in range(1, 9)]
        + [sl.diamond()]
        + [sl.antichain_with_bottom(k) for k in range(1, 6)]
    )


@st.composite
def builder_semilattices(draw):
    """One of small_semilattices, or the product of two of them."""
    pick = st.sampled_from(small_semilattices())
    if draw(st.booleans()):
        return draw(pick)
    return sl.product_semilattice(draw(pick), draw(pick))


def z2_z3_coset_family():
    # (a, b) is element 3a + b: {0, 3} is Z2 x 0, {0, 1, 2} is 0 x Z3
    return pr.product_group(pr.cyclic_group(2), pr.cyclic_group(3)), [
        {0}, {0, 3}, {0, 1, 2}, set(range(6)),
    ]


COSET_FAMILIES = {
    "z4": wb.coset_z4_family,
    "s3": wb.coset_s3_family,
    "z2xz3": z2_z3_coset_family,
}


@st.composite
def coset_families(draw):
    """A nonempty sub-family of a coset family, closed under
    intersection."""
    group, subgroups = COSET_FAMILIES[draw(st.sampled_from(sorted(COSET_FAMILIES)))]()
    picked = draw(st.sets(st.sampled_from(range(len(subgroups))), min_size=1))
    family = {frozenset(subgroups[k]) for k in picked}
    while extra := {a & b for a in family for b in family} - family:
        family |= extra
    return group, [set(s) for s in sorted(family, key=lambda s: (len(s), sorted(s)))]


def assert_certified_as_validated(spec):
    """A from_pi copy of a builder's spec, with no verdict, passes
    validate_spec with every residual exactly 0.0 and records the verdict
    and bounds the builder recorded."""
    copy = gr.GradedSpec.from_pi(spec.L, spec.components, spec.pi)
    assert copy.validated_bounds is None
    report = gr.validate_spec(copy)
    assert (
        report.identity_residual, report.hom_mult_residual,
        report.hom_star_residual, report.axiom_b_residual,
    ) == (0.0, 0.0, 0.0, 0.0)
    assert (spec.validated_tol, spec.validated_bounds) == (
        copy.validated_tol, copy.validated_bounds,
    )
    assert spec.validated_bounds == (0.0, 0.0, 0.0, 0.0)


def coset_action_reference(group, spec, cosets):
    """Left translation one coset at a time: the loop build_coset_spec
    used before it gathered coset labels."""
    maps = {}
    for s in range(group.order):
        for i, cs in enumerate(cosets):
            idx = {c: k for k, c in enumerate(cs)}
            m = np.zeros((len(cs), len(cs)))
            for k, c in enumerate(cs):
                shifted = frozenset(group.mul[s][x] for x in c)
                m[idx[shifted], k] = 1.0
            maps[(s, i)] = fd.StarHom(spec.components[i], spec.components[i], m)
    return maps


class TestBuildersCertify:
    @settings(max_examples=40, deadline=None)
    @given(builder_semilattices())
    def test_all_scalar(self, L):
        assert_certified_as_validated(wb.build_all_scalar(L))

    @settings(max_examples=30, deadline=None)
    @given(coset_families())
    def test_coset_spec_and_action(self, family):
        group, subgroups = family
        spec, act = wb.build_coset_spec(group, subgroups)
        assert_certified_as_validated(spec)
        cosets = [wb.left_cosets(group, s) for s in subgroups]
        want = coset_action_reference(group, spec, cosets)
        assert list(act.maps) == list(want)
        for key, h in want.items():
            assert np.array_equal(act.maps[key].matrix, h.matrix)
        pr.build_action(group, spec, act.maps)  # raises unless the laws hold

    @pytest.mark.parametrize("family", sorted(COSET_FAMILIES))
    def test_pullback_morphism_reads_the_certified_spec(self, family, monkeypatch):
        group, subgroups = COSET_FAMILIES[family]()
        calls = []
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a))
        monkeypatch.setattr(pr, "build_action", lambda *a: calls.append(a))
        mor = wb.coset_pullback_morphism(group, subgroups)
        assert calls == []
        spec = wb.build_coset_spec(group, subgroups)[0]
        assert np.array_equal(mor.source.pi, spec.pi)

    @pytest.mark.parametrize(
        "name", [n.replace("<n>", "5") for n in wb.DEMO_NAMES]
    )
    def test_demo_neither_validates_nor_checks_an_action(self, name, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(a))
        monkeypatch.setattr(pr, "build_action", lambda *a: calls.append(a))
        assert cli.main(["demo", name]) == 0
        spec = wb.demo_spec(name)
        assert calls == []
        monkeypatch.undo()
        assert_certified_as_validated(spec)
