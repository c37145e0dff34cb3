"""Documents, builders, reports."""

import json

import numpy as np
import pytest

from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import products as pr
from gradedcstar import semilattice as sl
from gradedcstar import workbench as wb
from gradedcstar.errors import InputError


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
        assert back.L.meet == spec.L.meet
        assert tuple(back.components) == tuple(spec.components)
        assert set(back.phi) == set(spec.phi)
        for key in spec.phi:
            assert np.array_equal(back.phi[key].matrix, spec.phi[key].matrix)

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
        assert back.mul == g.mul
        assert back.names == g.names

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
