"""The three workloads: one pass of commands each, with the check of every
command's output.

A workload writes its input documents into a work directory and returns
the list of operations of one pass. The pass is fixed for a workload seed
and repeats unchanged; the seed changes index names, basis orders,
conjugating unitaries and element values, never the sizes, so every seed
asks for the same amount of work.

Every command that a workload does not centre on still appears on a small
input, because each run reports a median latency for every command.

Each command has one anchor input: the one it runs most often in a pass.
The command's latency metric is taken over the anchor's samples only, so
it reads one input's cost, whatever the command's other inputs cost.
"""

import ast
import json
import os

import numpy as np

import gen

# The program's own --seed, kept apart from the workload seed.
CLI_SEED = 1

KINDS = (
    "validate", "norm", "characters", "restrict", "k0",
    "tensor", "crossed", "demo", "reject",
)

GNORM_RTOL = 1e-9

# Seconds one pass takes on the reference machine (2 cores, one BLAS
# thread); a run does ceil(--seconds / this) passes.
PASS_PLAN_S = {"scalar-lattices": 12.0, "matrix-blocks": 10.8, "products": 16.3}


class Mismatch(Exception):
    """A command's output differs from the value the generator derived."""


class Op:
    __slots__ = ("kind", "argv", "check", "anchor")

    def __init__(self, kind, argv, check):
        self.kind = kind
        self.argv = ["--seed", str(CLI_SEED)] + list(argv)
        self.check = check
        self.anchor = False


def _expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _code(code, want):
    _expect(code == want, f"exit code {code}, expected {want}")


def _meet_pairs(meet):
    """The number of (i, j, m) with m <= i ^ j, which validate reports."""
    n = len(meet)
    below = [sum(1 for m in range(n) if meet[m][k] == m) for k in range(n)]
    return sum(below[meet[i][j]] for i in range(n) for j in range(n))


# ------------------------------------------------------------- checkers

def check_validate(meet):
    pairs = _meet_pairs(meet)

    def check(code, out):
        _code(code, 0)
        lines = out.splitlines()
        _expect(lines and lines[-1] == "result: PASS", "validate did not PASS")
        _expect(
            any(ln.startswith("check compatibility: pass") and f"[{pairs} pairs]" in ln
                for ln in lines),
            f"compatibility line does not report {pairs} pairs",
        )
    return check


def check_reject(code, out):
    _code(code, 1)
    lines = out.splitlines()
    _expect(lines and lines[-1] == "result: FAIL", "reject did not FAIL")
    _expect("compatibility fails" in out, "failure is not the compatibility axiom")


def check_norm(spec, comps):
    want = spec.gnorm(comps)

    def check(code, out):
        _code(code, 0)
        lines = out.splitlines()
        _expect(len(lines) == spec.n + 1, f"{len(lines)} norm lines for {spec.n} indices")
        _expect(lines[-1].startswith("gnorm: "), "no gnorm line")
        got = float(lines[-1].split(": ", 1)[1])
        _expect(abs(got - want) <= GNORM_RTOL * max(1.0, want),
                f"gnorm {got!r}, expected {want!r}")
    return check


def check_characters(spec):
    total = spec.total_dim()
    scalar = all(b == [1] for b in spec.blocks)
    finishing = gen.up_set_count(spec.meet)

    def check(code, out):
        _code(code, 0)
        lines = out.splitlines()
        _expect(lines and lines[0] == f"{total} characters",
                f"first line {lines[:1]}, expected {total} characters")
        chars = sum(1 for ln in lines if ln.startswith("char "))
        _expect(chars == total, f"{chars} character lines, expected {total}")
        fin = [ln for ln in lines if ln.startswith("finishing ")]
        if scalar:
            _expect(f"{finishing} nonempty finishing sub-semilattices" in lines,
                    f"finishing count is not {finishing}")
            _expect(len(fin) == finishing, f"{len(fin)} finishing lines")
        else:
            _expect(not fin, "finishing lines for a spec that is not all-scalar")
    return check


def restrict_lines(spec, sub):
    """The exact restrict output for a cofinal meet-closed index set."""
    sub = sorted(sub)
    lines = ["restriction onto {" + ", ".join(spec.names[m] for m in sub) + "}"]
    for i in range(spec.n):
        upper = [m for m in sub if spec.leq(i, m)]
        least = next(m for m in upper if all(spec.leq(m, u) for u in upper))
        mat = spec.structure(i, least)
        for t in range(mat.shape[0]):
            s = int(np.argmax(np.abs(mat[t])))
            lines.append(
                f"char ({spec.names[i]}, {t}) -> ({spec.names[least]}, {s})"
            )
    return lines


def check_restrict(spec, sub):
    want = restrict_lines(spec, sub)

    def check(code, out):
        _code(code, 0)
        got = out.splitlines()
        _expect(got == want, f"restrict printed {len(got)} lines differing "
                f"from the {len(want)} expected")
    return check


def check_k0(total_rank, rank_rows=None):
    """Unimodular, the right total rank, and, where the generator knows the
    structure maps, the generator matrix up to the order of its columns
    (the column order is the program's choice of block order)."""

    def check(code, out):
        _code(code, 0)
        lines = out.splitlines()
        _expect("unimodular: true" in lines, "not unimodular")
        _expect(f"total rank: {total_rank}" in lines,
                f"total rank is not {total_rank}")
        start = lines.index("generator matrix:") + 1
        rows = [ast.literal_eval(ln.strip()) for ln in lines[start:start + total_rank]]
        _expect(all(len(r) == total_rank for r in rows), "generator matrix not square")
        if rank_rows is not None:
            cols = sorted(zip(*rows))
            want = sorted(zip(*rank_rows))
            _expect(cols == want, "generator matrix differs from the inclusion multiplicities")
    return check


def check_spec_doc(n, blocks, total_dim, path=None, ordered=True):
    """The emitted spec re-loads with the expected indices and blocks."""

    def check(code, out):
        _code(code, 0)
        if path is None:
            doc = json.loads(out)
        else:
            _expect(out.strip() == f"wrote {path}", "no write confirmation")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        names = doc["semilattice"]["names"]
        _expect(doc.get("format") == "gradedcstar-spec", "not a spec document")
        _expect(len(names) == n, f"{len(names)} indices, expected {n}")
        got = [doc["components"][name] for name in names]
        if not ordered:
            got = [sorted(b) for b in got]
        _expect(got == blocks, f"component blocks {got}, expected {blocks}")
        _expect(sum(gen.dim(b) for b in got) == total_dim,
                f"total dimension is not {total_dim}")
    return check


# ------------------------------------------------------------- builders

class Builder:
    """Writes documents into the work directory and collects operations."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.groups = []  # (op, times, writes a document)
        self.files = 0

    def write(self, doc, stem):
        self.files += 1
        path = os.path.join(self.workdir, f"{self.files:02d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def out_path(self, stem):
        self.files += 1
        return os.path.join(self.workdir, f"{self.files:02d}-{stem}.json")

    def spec(self, spec, stem):
        return self.write(spec.document(), stem)

    def add(self, kind, argv, check, times=1, writes=False):
        self.groups.append((Op(kind, argv, check), times, writes))

    def arranged(self):
        """The pass: every op's repeats spread evenly over it.

        The machine's speed drifts over a few seconds, so an op's samples
        are spread over the pass rather than run back to back. The pass is
        cut into as many rounds as the most repeated op has repeats; an op
        repeated r times runs in r evenly spaced rounds from a phase that
        scatters the single ops, and within a round ops keep the order they
        were added in. Ops that write a document start in round 0, so they
        come before every op that reads it.

        The first of a kind's most repeated ops is marked as its anchor.
        """
        for kind in {op.kind for op, _, _ in self.groups}:
            ops = [(times, op) for op, times, _ in self.groups if op.kind == kind]
            most = max(times for times, _ in ops)
            next(op for times, op in ops if times == most).anchor = True
        rounds = max(times for _, times, _ in self.groups)
        placed = []
        for j, (op, times, writes) in enumerate(self.groups):
            phase = 0.0 if writes else (j * 0.6180339887) % 1.0
            for k in range(times):
                placed.append((int((k + phase) * rounds / times), j, op))
        placed.sort(key=lambda x: x[:2])
        return [op for _, _, op in placed]

    def validate(self, path, spec, times=1):
        self.add("validate", ["validate", path], check_validate(spec.meet), times)

    def norm(self, path, spec, stem, times=1):
        comps = gen.random_element(self.rng, spec)
        el = self.write(gen.element_document(spec, comps), stem + "-el")
        self.add("norm", ["norm", path, el], check_norm(spec, comps), times)

    def characters(self, path, spec, times=1):
        self.add("characters", ["characters", path], check_characters(spec), times)

    def restrict(self, path, spec, sub, times=1):
        names = ",".join(spec.names[m] for m in sub)
        self.add("restrict", ["restrict", path, "--sub", names],
                 check_restrict(spec, sub), times)

    def k0(self, path, spec, times=1):
        self.add("k0", ["k0", path], check_k0(spec.block_count(), spec.rank_rows()), times)

    def reject(self, spec, pair, kind, stem, times=1):
        path = self.spec(gen.perturbed(self.rng, spec, pair, kind), stem + "-bad")
        self.add("reject", ["validate", path], check_reject, times)

    def tensor(self, a, pa, b, pb, stem, to_file, times=1):
        t = gen.tensor(a, b)
        out = self.out_path(stem) if to_file else None
        argv = ["tensor", pa, pb] + (["-o", out] if out else [])
        self.add("tensor", argv,
                 check_spec_doc(t["n"], t["blocks"], t["total_dim"], out), times, to_file)
        return out, t

    def crossed(self, act, path, stem, to_file, times=1):
        g = self.write(act.group.document(), stem + "-group")
        a = self.write(act.document(), stem + "-action")
        out = self.out_path(stem) if to_file else None
        argv = ["crossed", path, g, a] + (["-o", out] if out else [])
        blocks = [sorted(b) for b in act.crossed_blocks]
        total = act.group.order * act.spec.total_dim()
        self.add("crossed", argv,
                 check_spec_doc(act.spec.n, blocks, total, out, ordered=False),
                 times, to_file)
        return out

    def demo(self, name, n, blocks, total_dim, times=1):
        self.add("demo", ["demo", name], check_spec_doc(n, blocks, total_dim), times)


def scalar_lattices(b):
    rng = b.rng
    chains = {n: gen.all_scalar(rng, gen.chain_meet(n)) for n in (3, 4, 8, 12, 16, 20)}
    diamond = gen.all_scalar(rng, gen.diamond_meet())
    anti = gen.all_scalar(rng, gen.antichain_meet(10))
    grid12 = gen.all_scalar(rng, gen.grid_meet(3, 4))
    grid20 = gen.all_scalar(rng, gen.grid_meet(4, 5))
    p = {n: b.spec(s, f"chain{n}") for n, s in chains.items()}
    pd, pa = b.spec(diamond, "diamond"), b.spec(anti, "anti10")
    pg12, pg20 = b.spec(grid12, "grid3x4"), b.spec(grid20, "grid4x5")

    b.demo("chain-12", 12, [[1]] * 12, 12, times=8)
    for n in (8, 16, 20):
        b.demo(f"chain-{n}", n, [[1]] * n, n)
    b.validate(p[12], chains[12], times=9)
    for n in (8, 16, 20):
        b.validate(p[n], chains[n])
    for path, spec in ((pd, diamond), (pa, anti), (pg12, grid12), (pg20, grid20)):
        b.validate(path, spec)
    b.reject(chains[12], (0, 11), "zero", "chain12", times=6)
    b.reject(chains[20], (0, 19), "zero", "chain20")
    b.characters(p[12], chains[12], times=5)
    for path, spec in ((pd, diamond), (p[8], chains[8]), (p[16], chains[16])):
        b.characters(path, spec)
    b.restrict(p[8], chains[8], [4, 7], times=7)
    b.restrict(p[12], chains[12], [6, 11])
    b.restrict(p[16], chains[16], [15])
    b.restrict(pg12, grid12, [8, 11])
    b.k0(p[12], chains[12], times=8)
    for n in (8, 16, 20):
        b.k0(p[n], chains[n])
    for path, spec in ((pd, diamond), (pa, anti), (pg20, grid20)):
        b.k0(path, spec)
    b.norm(pg20, grid20, "grid4x5", times=4)
    b.norm(p[16], chains[16], "chain16")
    b.norm(p[20], chains[20], "chain20")
    b.tensor(chains[3], p[3], chains[4], p[4], "chain3xchain4", False, times=9)
    b.crossed(gen.trivial_action(diamond, gen.cyclic_group(2)), pd, "diamond-z2",
              False, times=9)


def matrix_blocks(b):
    rng = b.rng
    shapes = ((4, 3), (5, 3), (6, 3), (3, 5))
    mats = {dn: gen.matrix_chain(rng, *dn) for dn in shapes}
    doubling = gen.doubling_chain(rng)
    multi = gen.multi_block_chain(rng)
    split = gen.split_pair(rng)
    m2 = gen.m2_chain(rng)
    p = {dn: b.spec(s, "m{}chain{}".format(*dn)) for dn, s in mats.items()}
    pdbl, pmul = b.spec(doubling, "doubling"), b.spec(multi, "multiblock")
    psplit, pm2 = b.spec(split, "split"), b.spec(m2, "m2chain")
    others = [(p[dn], mats[dn], "m{}chain{}".format(*dn)) for dn in ((4, 3), (6, 3), (3, 5))]
    others += [(pdbl, doubling, "doubling"), (pmul, multi, "multiblock")]

    b.validate(p[(5, 3)], mats[(5, 3)], times=7)
    for path, spec, _ in others:
        b.validate(path, spec)
    b.reject(mats[(5, 3)], (0, 2), "rotate", "m5chain", times=5)
    b.reject(doubling, (0, 2), "rotate", "doubling")
    b.norm(p[(5, 3)], mats[(5, 3)], "m5chain3", times=7)
    for path, spec, stem in others:
        b.norm(path, spec, stem)
    b.k0(p[(4, 3)], mats[(4, 3)], times=6)
    for path, spec in ((pdbl, doubling), (pmul, multi), (p[(5, 3)], mats[(5, 3)]),
                       (p[(6, 3)], mats[(6, 3)])):
        b.k0(path, spec)
    b.demo("m2-chain", 2, [[2], [1]], 5, times=9)
    b.characters(psplit, split, times=9)
    b.restrict(psplit, split, [1], times=9)
    b.tensor(m2, pm2, m2, pm2, "m2xm2", False, times=9)
    b.crossed(gen.inner_z2_action(rng, m2), pm2, "m2-z2", False, times=9)


def products(b):
    rng = b.rng
    z4 = gen.coset_spec(rng, gen.cyclic_group(4), gen.Z4_FAMILY, "z")
    s3 = gen.coset_spec(rng, gen.symmetric3(), gen.S3_FAMILY, "s")
    diamond = gen.all_scalar(rng, gen.diamond_meet())
    chain4 = gen.all_scalar(rng, gen.chain_meet(4))
    m2 = gen.m2_chain(rng)
    pz4, ps3 = b.spec(z4.spec, "coset-z4"), b.spec(s3.spec, "coset-s3")
    pd, pc4 = b.spec(diamond, "diamond"), b.spec(chain4, "chain4")
    pm2 = b.spec(m2, "m2chain")

    b.demo("coset-s3", 4, [[1] * 6, [1] * 3, [1] * 2, [1]], 12, times=8)
    b.demo("coset-z4", 3, [[1] * 4, [1] * 2, [1]], 7, times=2)
    z4c4, t_z4c4 = b.tensor(z4.spec, pz4, chain4, pc4, "z4xchain4", True, times=7)
    z4d, t_z4d = b.tensor(z4.spec, pz4, diamond, pd, "z4xdiamond", True)
    b.tensor(s3.spec, ps3, s3.spec, ps3, "s3xs3", True)
    m2z4, t_m2z4 = b.tensor(m2, pm2, z4.spec, pz4, "m2xz4", True)
    cz4 = b.crossed(z4, pz4, "z4-by-z4", True, times=4)
    cs3 = b.crossed(s3, ps3, "s3-by-s3", True)
    # The s3 x s3 output is not validated again: the tensor command has
    # just validated it, and doing so takes 3.3 s.
    b.add("validate", ["validate", cz4], check_validate(z4.spec.meet), times=7)
    for path, meet in ((z4c4, t_z4c4["meet"]), (z4d, t_z4d["meet"]),
                       (m2z4, t_m2z4["meet"]), (cs3, s3.spec.meet)):
        b.add("validate", ["validate", path], check_validate(meet))
    b.validate(ps3, s3.spec)
    b.reject(s3.spec, (0, 3), "shrink", "coset-s3", times=8)
    b.reject(z4.spec, (0, 2), "shrink", "coset-z4", times=2)
    # k0 is left out on s3 x s3, whose 144 blocks would need a product
    # array of 144^4 complex entries (6.9 GB) in wedderburn; on z4 x chain4,
    # whose 28 blocks repeat the z4 x diamond case; and on m2 x z4, to keep
    # the pass short.
    b.add("k0", ["k0", cz4], check_k0(sum(len(x) for x in z4.crossed_blocks)), times=4)
    b.add("k0", ["k0", z4d], check_k0(len(t_z4d["rank_rows"]), t_z4d["rank_rows"]))
    b.add("k0", ["k0", cs3], check_k0(sum(len(x) for x in s3.crossed_blocks)))
    b.norm(ps3, s3.spec, "coset-s3", times=6)
    b.norm(pz4, z4.spec, "coset-z4", times=2)
    b.characters(ps3, s3.spec, times=6)
    b.characters(pz4, z4.spec, times=2)
    b.restrict(ps3, s3.spec, [3], times=6)
    b.restrict(pz4, z4.spec, [2], times=2)


BUILDERS = {
    "scalar-lattices": scalar_lattices,
    "matrix-blocks": matrix_blocks,
    "products": products,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed, workdir):
    """Write the workload's documents and return the operations of a pass."""
    b = Builder(workdir, seed)
    BUILDERS[workload](b)
    return b.arranged()


def warmup(workdir):
    """A few tiny commands that load every code path before timing."""
    b = Builder(workdir, 0)
    rng = b.rng
    c3 = gen.all_scalar(rng, gen.chain_meet(3))
    m2 = gen.m2_chain(rng)
    p3, pm2 = b.spec(c3, "w-chain3"), b.spec(m2, "w-m2")
    b.demo("chain-3", 3, [[1]] * 3, 3)
    b.validate(p3, c3)
    b.norm(pm2, m2, "w-m2")
    b.characters(p3, c3)
    b.restrict(p3, c3, [2])
    b.k0(pm2, m2)
    b.tensor(c3, p3, m2, pm2, "w-c3xm2", False)
    b.crossed(gen.inner_z2_action(rng, m2), pm2, "w-m2-z2", False)
    b.reject(c3, (0, 2), "zero", "w-chain3")
    return b.arranged()
