"""End-to-end command-line behavior, including exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from gradedcstar import cli
from gradedcstar import findim as fd
from gradedcstar import graded as gr
from gradedcstar import products as pr
from gradedcstar import seeding
from gradedcstar import semilattice as sl
from gradedcstar import spectra as sp
from gradedcstar import workbench as wb

GOLDEN = Path(__file__).parent / "data" / "demo_outputs.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def demo_file(tmp_path, name, fname="spec.json"):
    path = tmp_path / fname
    code = cli.main(["demo", name, "-o", str(path)])
    assert code == 0
    return path


class TestValidate:
    def test_demo_passes(self, tmp_path, capsys):
        path = demo_file(tmp_path, "all-scalar-diamond")
        capsys.readouterr()
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0
        assert "result: PASS" in out
        assert "seed:" in out
        assert "check compatibility: pass" in out
        assert "elapsed:" in err

    def test_default_seed_in_report_header(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(seeding.SEED_ENV_VAR, raising=False)
        assert seeding.resolve_seed() == seeding.DEFAULT_SEED
        path = demo_file(tmp_path, "chain-2")
        capsys.readouterr()
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert f"seed: {seeding.DEFAULT_SEED}" in out.splitlines()

    def test_malformed_seed_variable_exits_two(self, tmp_path, capsys, monkeypatch):
        path = demo_file(tmp_path, "chain-2")
        capsys.readouterr()
        monkeypatch.setenv(seeding.SEED_ENV_VAR, "abc")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "error: InputError: GRADEDCSTAR_SEED='abc' is not an integer" in err

    def test_math_failure_exits_one(self, tmp_path, capsys):
        doc = wb.spec_to_document(wb.demo_spec("all-scalar-diamond"))
        doc["phi"][0]["matrix"] = [[[2.0, 0.0]]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "result: FAIL" in out

    def test_validates_once(self, tmp_path, capsys, monkeypatch):
        path = demo_file(tmp_path, "m2-chain")
        capsys.readouterr()
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(1) or real(*a))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "result: PASS" in out
        assert len(calls) == 1

    def test_path_dependence_is_a_failed_check(self, tmp_path, capsys):
        doc = wb.spec_to_document(wb.demo_spec("all-scalar-diamond"))
        doc["phi"] = [e for e in doc["phi"] if {e["to"], e["from"]} != {"0", "1"}]
        for e in doc["phi"]:
            if (e["to"], e["from"]) == ("a", "1"):
                e["matrix"] = [[[0.0, 0.0]]]
        doc["closure"] = "chains"
        path = tmp_path / "paths.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "check validate: fail" in out
        assert "disagree" in out
        assert "result: FAIL" in out

    def test_rejected_argv_leaves_the_parser_intact(self, tmp_path, capsys):
        # the parser is built once per process and shared by every call
        path = demo_file(tmp_path, "all-scalar-diamond")
        capsys.readouterr()
        _, alone, _ = run(capsys, "restrict", str(path), "--sub", "a,1")
        with pytest.raises(SystemExit) as exc:
            cli.main(["restrict", str(path), "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, after, _ = run(capsys, "restrict", str(path), "--sub", "a,1")
        assert code == 0
        assert after == alone
        assert cli.build_parser() is cli.build_parser()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, out, err = run(capsys, "validate", str(tmp_path / "no.json"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestAnalysis:
    def test_characters_output_and_determinism(self, tmp_path, capsys):
        path = demo_file(tmp_path, "all-scalar-diamond")
        capsys.readouterr()
        code, out1, _ = run(capsys, "characters", str(path))
        assert code == 0
        assert "4 characters" in out1
        assert "4 nonempty finishing sub-semilattices" in out1
        lines = out1.splitlines()
        assert "finishing {1} <-> character (1, 0)" in lines
        assert "finishing {a, 1} <-> character (a, 0)" in lines
        assert "finishing {0, a, b, 1} <-> character (0, 0)" in lines
        assert "None" not in out1
        code, out2, _ = run(capsys, "characters", str(path))
        assert out2 == out1

    def test_characters_reject_noncommutative(self, tmp_path, capsys):
        path = demo_file(tmp_path, "m2-chain")
        capsys.readouterr()
        code, out, err = run(capsys, "characters", str(path))
        assert code == 2
        assert "commutative" in err

    def test_characters_computed_once_on_all_scalar_specs(
        self, tmp_path, capsys, monkeypatch
    ):
        path = demo_file(tmp_path, "all-scalar-diamond")
        calls = []
        real = sp.graded_characters
        monkeypatch.setattr(
            sp, "graded_characters", lambda *a: calls.append(1) or real(*a)
        )
        capsys.readouterr()
        code, out, _ = run(capsys, "characters", str(path))
        assert code == 0
        assert len(calls) == 1
        # characters by tag, as graded_characters orders them; the
        # correspondence in its own order
        assert out.splitlines() == [
            "4 characters",
            "char (0, 0): [1, 1, 1, 1]",
            "char (a, 0): [0, 1, 0, 1]",
            "char (b, 0): [0, 0, 1, 1]",
            "char (1, 0): [0, 0, 0, 1]",
            "4 nonempty finishing sub-semilattices",
            "finishing {1} <-> character (1, 0)",
            "finishing {b, 1} <-> character (b, 0)",
            "finishing {a, 1} <-> character (a, 0)",
            "finishing {0, a, b, 1} <-> character (0, 0)",
        ]

    def test_characters_of_an_all_scalar_spec_with_a_zero_map(self, tmp_path, capsys):
        # phi_01 = 0 is a *-hom, so the spec validates; with a structure
        # map other than the identity there is no finishing correspondence
        # to print, and the characters are listed alone
        spec = gr.GradedSpec.from_pi(sl.chain(2), [fd.AlgebraShape([1])] * 2, np.eye(2))
        path = tmp_path / "zero.json"
        wb.save_document(wb.spec_to_document(spec), path)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 0, err
        code, out, err = run(capsys, "characters", str(path))
        assert code == 0, err
        assert out.splitlines() == [
            "2 characters",
            "char (0, 0): [1, 0]",
            "char (1, 0): [0, 1]",
        ]

    @pytest.mark.parametrize(
        "argv", [["characters"], ["restrict", "--sub", "a,1"]], ids=lambda a: a[0]
    )
    def test_no_oracle_on_the_command_path(self, tmp_path, capsys, monkeypatch, argv):
        path = demo_file(tmp_path, "all-scalar-diamond")

        def oracle(*args):
            raise AssertionError("a command reached a test oracle")

        monkeypatch.setattr(sp, "_product_table", oracle)
        monkeypatch.setattr(sl.Semilattice, "enumerate_finishing_subsemilattices", oracle)
        monkeypatch.setattr(sl.Semilattice, "is_finishing_subsemilattice", oracle)
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(1) or real(*a))
        capsys.readouterr()
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 0, err
        assert out
        assert len(calls) == 1

    def test_k0_on_zero_components(self, tmp_path, capsys):
        zero = fd.AlgebraShape(())
        L = sl.chain(3)
        phi = {pair: fd.zero_hom(zero, zero) for pair in L.comparable_pairs()}
        path = tmp_path / "zero.json"
        wb.save_document(
            wb.spec_to_document(gr.GradedSpec(L, [zero] * 3, phi)), str(path)
        )
        code, out, _ = run(capsys, "k0", str(path))
        assert code == 0
        assert out.splitlines() == [
            "component ranks: [0, 0, 0]",
            "total rank: 0",
            "generator matrix:",
            "unimodular: true",
            "k1 total rank: 0",
        ]

    def test_k0_frozen_chain_matrix(self, tmp_path, capsys):
        path = demo_file(tmp_path, "m2-chain")
        capsys.readouterr()
        code, out, _ = run(capsys, "k0", str(path))
        assert code == 0
        assert "[1, 0]" in out
        assert "[2, 1]" in out
        assert "unimodular: true" in out
        assert "k1 total rank: 0" in out

    def test_restrict_table(self, tmp_path, capsys):
        path = demo_file(tmp_path, "all-scalar-diamond")
        capsys.readouterr()
        code, out, _ = run(capsys, "restrict", str(path), "--sub", "a,1")
        assert code == 0
        assert "char (0, 0) -> (a, 0)" in out
        assert "char (b, 0) -> (1, 0)" in out
        assert "char (a, 0) -> (a, 0)" in out
        assert "char (1, 0) -> (1, 0)" in out

    def test_norm_of_corner_element(self, tmp_path, capsys):
        path = demo_file(tmp_path, "m2-chain")
        elem = tmp_path / "x.json"
        elem.write_text(
            json.dumps(
                {
                    "components": {
                        "0": [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
                    }
                }
            )
        )
        capsys.readouterr()
        code, out, _ = run(capsys, "norm", str(path), str(elem))
        assert code == 0
        assert "pi[0]: 3" in out
        assert "pi[1]: 0" in out
        assert "gnorm: 3" in out

    @pytest.mark.filterwarnings("error")
    def test_norm_overflow_exits_three(self, tmp_path, capsys):
        # pi[0] sums five entries of 1e308 into inf; its norm is NaN and
        # must not print as a norm, nor raise numpy's overflow warnings
        path = demo_file(tmp_path, "m2-chain")
        elem = tmp_path / "x.json"
        elem.write_text(
            json.dumps(
                {"components": {"0": [[1e308, 0.0]] * 4, "1": [[1e308, 0.0]]}}
            )
        )
        capsys.readouterr()
        code, out, err = run(capsys, "norm", str(path), str(elem))
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("error: NumericFailure: pi[0] is nan")
        assert lines[1].startswith("elapsed:")

    def test_genus_lines(self, capsys):
        code, out, _ = run(capsys, "genus", "4")
        assert code == 0
        assert "genus: 2" in out
        assert "pinched: false" in out
        code, out, _ = run(capsys, "genus", "3")
        assert "genus: 1" in out
        assert "pinched: true" in out
        code, out, _ = run(capsys, "genus", "1000000000000")
        assert code == 0
        assert "genus: 500000000000" in out

    def test_genus_bad_n_exits_two(self, capsys):
        code, out, err = run(capsys, "genus", "1")
        assert code == 2


class TestConstructions:
    def test_tensor_emits_valid_document(self, tmp_path, capsys):
        a = demo_file(tmp_path, "chain-2", "a.json")
        out_path = tmp_path / "t.json"
        capsys.readouterr()
        code, out, _ = run(
            capsys, "tensor", str(a), str(a), "-o", str(out_path)
        )
        assert code == 0
        spec = wb.document_to_spec(wb.load_document(out_path))
        assert spec.L.n == 4
        assert spec.total_dim == 4

    def test_tensor_validates_each_factor_once(self, tmp_path, capsys, monkeypatch):
        # the factors' bounds certify the product: no third validation
        a = demo_file(tmp_path, "coset-z4", "a.json")
        b = demo_file(tmp_path, "m2-chain", "b.json")
        capsys.readouterr()
        calls = []
        real = gr.validate_spec
        monkeypatch.setattr(gr, "validate_spec", lambda *a: calls.append(1) or real(*a))
        code, out, _ = run(capsys, "tensor", str(a), str(b))
        assert code == 0
        assert len(calls) == 2
        t = pr.tensor_spec(wb.demo_spec("coset-z4"), wb.demo_spec("m2-chain"))
        assert out == json.dumps(wb.spec_to_document(t), indent=2) + "\n"

    def test_crossed_emits_valid_document(self, tmp_path, capsys):
        spec_path = demo_file(tmp_path, "m2-chain")
        spec = wb.demo_spec("m2-chain")
        group = pr.cyclic_group(2)
        act = pr.trivial_action(group, spec)
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(wb.group_to_document(group)))
        apath = tmp_path / "action.json"
        apath.write_text(json.dumps(wb.action_to_document(act)))
        out_path = tmp_path / "crossed.json"
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "crossed",
            str(spec_path),
            str(gpath),
            str(apath),
            "-o",
            str(out_path),
        )
        assert code == 0
        crossed = wb.document_to_spec(wb.load_document(out_path))
        assert crossed.total_dim == 2 * spec.total_dim

    def test_crossed_ignores_the_seed(self, tmp_path, capsys):
        # the seed is recorded only; no command draws random numbers
        spec_path = demo_file(tmp_path, "coset-z4")
        _, act = wb.build_coset_spec(*wb.coset_z4_family())
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(wb.group_to_document(act.group)))
        apath = tmp_path / "action.json"
        apath.write_text(json.dumps(wb.action_to_document(act)))
        capsys.readouterr()
        outs = []
        for seed in ("1", "2"):
            code, out, _ = run(
                capsys, "--seed", seed, "crossed", str(spec_path), str(gpath),
                str(apath),
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_crossed_k0_ignores_the_order_of_the_action_maps(self, tmp_path, capsys):
        spec_path = demo_file(tmp_path, "coset-s3")
        _, act = wb.build_coset_spec(*wb.coset_s3_family())
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps(wb.group_to_document(act.group)))
        doc = wb.action_to_document(act)
        outs = []
        for k, maps in enumerate((doc["maps"], doc["maps"][::-1])):
            apath = tmp_path / f"action{k}.json"
            apath.write_text(json.dumps({**doc, "maps": maps}))
            cpath = tmp_path / f"crossed{k}.json"
            capsys.readouterr()
            code, _, _ = run(
                capsys, "crossed", str(spec_path), str(gpath), str(apath), "-o", str(cpath)
            )
            assert code == 0
            code, out, _ = run(capsys, "k0", str(cpath))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_demo_to_stdout_parses(self, capsys):
        code, out, _ = run(capsys, "demo", "coset-z4")
        assert code == 0
        spec = wb.document_to_spec(json.loads(out))
        assert [c.dim for c in spec.components] == [4, 2, 1]

    def test_unknown_demo_exits_two(self, capsys):
        code, out, err = run(capsys, "demo", "nope")
        assert code == 2
        assert "unknown demo" in err


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda c: " ".join([c["demo"]] + c["argv"])
)
def test_demo_outputs_golden(tmp_path, capsys, case):
    path = demo_file(tmp_path, case["demo"])
    capsys.readouterr()
    argv = case["argv"][:1] + [str(path)] + case["argv"][1:]
    code, out, err = run(capsys, *argv)
    assert code == case["code"]
    assert out.splitlines() == case["stdout"]
    if "stderr" in case:
        assert err.splitlines()[0] == case["stderr"]


BAD_ENTRIES = {
    "nan": "NaN",
    "infinity": "Infinity",
    "minus-infinity": "-Infinity",
    "boolean": "true",
    "huge-integer": "1" + "0" * 400,
}


class TestNonFiniteEntries:
    @pytest.mark.parametrize("token", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    @pytest.mark.parametrize("command", ["validate", "k0", "characters"])
    def test_spec_entry_rejected(self, tmp_path, capsys, command, token):
        # the structure map's only entry becomes [token, 0.0]
        doc = wb.spec_to_document(wb.demo_spec("chain-2"))
        text = json.dumps(doc).replace("[1.0, 0.0]", f"[{token}, 0.0]", 1)
        assert token in text
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "DocumentError" in err and "phi[0]: matrix: row 0, column 0" in err

    @pytest.mark.parametrize("token", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_element_entry_rejected(self, tmp_path, capsys, token):
        spec_path = demo_file(tmp_path, "m2-chain")
        elem = tmp_path / "x.json"
        elem.write_text(
            '{"components": {"0": [[%s, 0.0], [0.0, 0.0], [0.0, 0.0], '
            "[0.0, 0.0]]}}" % token
        )
        capsys.readouterr()
        code, out, err = run(capsys, "norm", str(spec_path), str(elem))
        assert code == 2
        assert out == ""
        assert "DocumentError" in err and "entry 0" in err


def _coset_z4_documents():
    spec, act = wb.build_coset_spec(*wb.coset_z4_family())
    return {
        "spec": wb.spec_to_document(spec),
        "group": wb.group_to_document(act.group),
        "action": wb.action_to_document(act),
        "element": wb.element_to_document(spec.component_unit(0)),
    }


def _float_meet(docs):
    meet = [[float(x) for x in row] for row in docs["spec"]["semilattice"]["meet"]]
    meet[1][2] = 1.9  # {0,2} ^ G = {0,2}, index 1
    docs["spec"]["semilattice"]["meet"] = meet


# argv with document names for paths, the mutation of the coset-z4
# documents, and the DocumentError message
MALFORMED = {
    "superscript-sub": (
        ["restrict", "spec", "--sub", "²"], None, "unknown semilattice index '²'"
    ),
    "element-components-list": (
        ["norm", "spec", "element"],
        lambda d: d["element"].update(components=[1, 2]),
        "element document needs a components object",
    ),
    "meet-string-entry": (
        ["validate", "spec"],
        lambda d: d["spec"]["semilattice"]["meet"][0].__setitem__(1, "a"),
        "semilattice: meet: row 0, column 1 must be an integer",
    ),
    "meet-number": (
        ["validate", "spec"],
        lambda d: d["spec"]["semilattice"].update(meet=5),
        "semilattice: meet: must be a list of rows",
    ),
    "names-number": (
        ["validate", "spec"],
        lambda d: d["spec"]["semilattice"].update(names=5),
        "semilattice: names must be a list",
    ),
    "duplicate-names": (
        ["validate", "spec"],
        lambda d: d["spec"]["semilattice"]["names"].__setitem__(1, "{0}"),
        "semilattice: element names are not distinct",
    ),
    "names-equal-as-strings": (
        ["validate", "spec"],
        lambda d: d["spec"]["semilattice"].update(names=[1, "1", "a"]),
        "semilattice: element names are not distinct",
    ),
    "meet-floats": (
        ["validate", "spec"], _float_meet, "semilattice: meet: row 0, column 0 must be an integer"
    ),
    "boolean-blocks": (
        ["validate", "spec"],
        lambda d: d["spec"]["components"].update({"{0}": [True] * 4}),
        "components['{0}']: block list must hold positive integers",
    ),
    "unhashable-phi-name": (
        ["validate", "spec"],
        lambda d: d["spec"]["phi"][0].update({"from": [1]}),
        "phi[0]: unknown index name [1]",
    ),
    "group-string-entry": (
        ["crossed", "spec", "group", "action"],
        lambda d: d["group"].update(mul=[[0, "a"], [1, 0]]),
        "mul: row 0, column 1 must be an integer",
    ),
    "group-names-number": (
        ["crossed", "spec", "group", "action"],
        lambda d: d["group"].update(names=5),
        "group: names must be a list",
    ),
    "action-maps-number": (
        ["crossed", "spec", "group", "action"],
        lambda d: d["action"].update(maps=5),
        "action document needs a maps list",
    ),
    "unhashable-action-element": (
        ["crossed", "spec", "group", "action"],
        lambda d: d["action"]["maps"][0].update(element=[1]),
        "maps[0]: unknown group element [1]",
    ),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_exits_two(tmp_path, capsys, case):
    argv, mutate, message = case
    docs = _coset_z4_documents()
    if mutate is not None:
        mutate(docs)
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{a}.json") if a in docs else a for a in argv]
    # any exception other than the package's own would escape main
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == f"error: DocumentError: {message}"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "demo", ["all-scalar-diamond", "chain-3", "coset-z4", "coset-s3", "m2-chain"]
)
def test_no_command_builds_the_q_family(tmp_path, capsys, monkeypatch, demo):
    # the q family is the per-pair route the package no longer takes on any
    # command path: the crossed product certifies one index at a time
    spec = wb.demo_spec(demo)
    path = demo_file(tmp_path, demo)
    element = tmp_path / "element.json"
    element.write_text(json.dumps(wb.element_to_document(spec.component_unit(0))))

    def no_q_family(spec):
        raise AssertionError("a command built the q family")

    monkeypatch.setattr(gr, "q_family_from_spec", no_q_family)
    commutative = all(c.blocks == (1,) * c.nblocks for c in spec.components)
    runs = [
        (["validate", path], 0),
        (["k0", path], 0),
        (["characters", path], 0 if commutative else 2),
        (["restrict", path, "--sub", str(spec.L.top())], 0 if commutative else 2),
        (["norm", path, element], 0),
        (["tensor", path, path, "-o", tmp_path / "t.json"], 0),
    ]
    if demo == "coset-s3":
        _, act = wb.build_coset_spec(*wb.coset_s3_family())
        group, action = tmp_path / "group.json", tmp_path / "action.json"
        group.write_text(json.dumps(wb.group_to_document(act.group)))
        action.write_text(json.dumps(wb.action_to_document(act)))
        runs.append((["crossed", path, group, action, "-o", tmp_path / "c.json"], 0))
    capsys.readouterr()
    for argv, want in runs:
        code, _, err = run(capsys, *map(str, argv))
        assert code == want, (argv[0], err)
