"""The four benchmark workloads.

Each workload is a closed loop with one client: ``make`` builds operation
``i``'s input (untimed), ``run`` is the timed operation, ``check`` verifies
its output (untimed) and ``items`` counts the domain work it did.  Inputs
depend only on the seed and on ``i % round_ops``, so every round of
``round_ops`` operations does the same work; ``i`` and ``tag`` only rename
graph ids, so that operations still miss the Graph-keyed caches where the
workload wants them to miss.

All timed ``pathalg`` calls go through ``Tracer.wrap`` (see ``tracing.py``),
so the traced run can attribute time to layers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter

from pathalg import (
    CATEGORY_NAMES,
    AlgebraContext,
    AlgebraElement,
    Graph,
    canonical_dumps,
    check_commutativity,
    check_hypotheses,
    check_kernel_inclusion,
    classify,
    enumerate_path_homs,
    induce_leavitt,
    instance_to_data,
    load_instance,
    multiply,
    parse_expression,
    paths_up_to,
    quotient_map,
    save_json,
    vertex_simple_loops_have_exits,
)
from pathalg import cli

import gen

PASS_UP_TO_BOUND = "PASS_UP_TO_BOUND"


def sha256(text) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


class Workload:
    name = ""
    # operations per round of the timed loop, and per pass of the traced run
    round_ops = 0
    trace_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = os.path.join(workdir, self.name)
        os.makedirs(self.workdir, exist_ok=True)

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(str(k) for k in (self.name, self.seed) + key))

    def bind(self, tracer) -> None:
        """Take the timed pathalg functions through ``tracer``."""
        raise NotImplementedError

    def setup(self) -> list[str]:
        """Generate the inputs and warm up; return setup-check failures."""
        raise NotImplementedError

    def make(self, i: int, tag: str = ""):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """An error message, or None when the output is correct."""
        raise NotImplementedError

    def items(self, inp, out) -> int:
        raise NotImplementedError

    def digest(self, inp, out) -> str:
        """Fingerprint of the output, compared with the recorded goldens for
        the default seed."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """Input sizes, stamped into the result file."""
        raise NotImplementedError


# -- pullback_square ---------------------------------------------------------

# (family, letters k, code words, exits n, bound b); the thin squares are
# rp2q with n exit pairs.  Binary codes have 3 words and ternary ones 5, so
# every seed's code has the same shape up to relabelling and the costs do not
# depend on the seed.  The five squares cost about 1 : 1.4 : 2.3 : 3.4 : 7.4,
# so p50 lies inside the middle square's cluster of latencies and p90 inside
# the largest one's, never on the gap between two clusters.  A round takes
# about 80 ms, so a run repeats each square a few hundred times.
PULLBACK_SQUARES = (
    ("thin", 1, 1, 1, 5),
    ("prefix-code", 3, 5, 1, 2),
    ("thin", 1, 1, 2, 4),
    ("prefix-code", 3, 5, 2, 2),
    ("prefix-code", 2, 3, 1, 4),
)


def square_specs(rng: random.Random, table) -> list[dict]:
    specs = []
    for family, k, words, exits, bound in table:
        code = gen.complete_prefix_code(rng, k, words)
        specs.append({"family": family, "k": k, "code": code, "exits": exits, "bound": bound,
                      "kernel_pairs": gen.kernel_pairs(k, exits, bound)})
    return specs


def write_square(spec: dict, path: str) -> None:
    inst = gen.prefix_code_square(spec["k"], spec["code"], spec["exits"], spec["bound"])
    save_json(path, instance_to_data(inst))


def pullback_payload_check(hyp_data: dict, comm_data, kernel_data, spec: dict):
    """Invariants every generated square satisfies, read from the report
    data in the shape ``pathalg pullback --json`` prints."""
    pairs = spec["kernel_pairs"]
    if hyp_data["overall"] != PASS_UP_TO_BOUND:
        return f"overall verdict {hyp_data['overall']}, expected {PASS_UP_TO_BOUND}"
    h8 = hyp_data["hypotheses"][-1]
    certificate = h8.get("witness", {}).get("certificate", [])
    if len(certificate) ** 2 != pairs:
        return f"H8 certificate has {len(certificate)} entries, expected {pairs ** 0.5:.0f}"
    if comm_data is None or not comm_data["all_ok"]:
        return "commutativity does not hold on all generators"
    if kernel_data is None or not kernel_data["all_ok"]:
        return "kernel inclusion is not verified"
    if kernel_data["checked"] != pairs:
        return f"{kernel_data['checked']} kernel pairs checked, closed form gives {pairs}"
    return None


class PullbackSquare(Workload):
    name = "pullback_square"
    round_ops = len(PULLBACK_SQUARES)
    trace_ops = 5 * round_ops

    def bind(self, tracer) -> None:
        w = tracer.wrap
        self.load_instance = w("jsonio.load_instance", load_instance)
        self.check_hypotheses = w(
            "pullback.check_hypotheses", check_hypotheses,
            lambda r: len(r.hypothesis("H8").witness["certificate"]))
        self.check_commutativity = w("pullback.check_commutativity", check_commutativity)
        self.check_kernel_inclusion = w(
            "pullback.check_kernel_inclusion", check_kernel_inclusion, lambda r: len(r.entries))
        self.canonical_dumps = w("jsonio.canonical_dumps", canonical_dumps, len)

    def setup(self) -> list[str]:
        self.specs = square_specs(self.rng(), PULLBACK_SQUARES)
        self.files = []
        for j, spec in enumerate(self.specs):
            path = os.path.join(self.workdir, f"square{j}.json")
            write_square(spec, path)
            self.files.append(path)
        errors = []
        for j, path in enumerate(self.files):
            inp = self.make(j)
            out = self.run(inp)
            err = self.check(inp, out)
            # the pipeline must print exactly what the CLI prints
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["pullback", path, "--json"])
            if code != 0 or stdout.getvalue() != out[0]:
                err = err or f"differs from `pathalg pullback {path} --json` (exit {code})"
            if err:
                errors.append(f"square {j}: {err}")
        return errors

    def make(self, i: int, tag: str = ""):
        j = i % len(self.files)
        return self.files[j], self.specs[j]

    def run(self, inp):
        # the body of `pathalg pullback FILE --json`
        inst = self.load_instance(inp[0])
        report = self.check_hypotheses(inst)
        payload = {"hypotheses": report.to_json_data(), "commutativity": None, "kernel": None}
        kernel = None
        if report.overall != "FAIL":
            comm = self.check_commutativity(inst)
            kernel = self.check_kernel_inclusion(inst, report)
            payload["commutativity"] = comm.to_json_data()
            payload["kernel"] = kernel.to_json_data()
        return self.canonical_dumps(payload), payload, kernel

    def check(self, inp, out):
        text, payload, _ = out
        if not text.endswith("}\n"):
            return "output is not one canonical JSON document"
        return pullback_payload_check(payload["hypotheses"], payload["commutativity"],
                                      payload["kernel"], inp[1])

    def items(self, inp, out) -> int:
        return len(out[2].entries)

    def digest(self, inp, out) -> str:
        return sha256(out[0])

    def sizes(self) -> dict:
        return {"squares": [{k: spec[k] for k in ("family", "k", "exits", "bound", "kernel_pairs")}
                            | {"code_words": len(spec["code"])} for spec in self.specs]}


# -- leavitt_products --------------------------------------------------------

LEAVITT_SQUARE = ("prefix-code", 2, 3, 2, 3)
LEAVITT_TERMS = 32
# distinct expression pairs, one round of operations.  Their products range
# from about 10 to 100 monomials; a pool this large keeps the median cost of
# a pool, and so p50, nearly the same from seed to seed.
LEAVITT_POOL = 128
LEAVITT_PATH_LEN = 3
COEFFICIENTS = ("", "2 ", "3 ", "7 ", "1/2 ", "5/3 ", "3/4 ")


def random_path(rng: random.Random, g: Graph, start: str, max_len: int) -> tuple[list, str]:
    edges, v = [], start
    for _ in range(rng.randint(0, max_len)):
        outs = g.out_edges(v)
        if not outs:
            break
        e = rng.choice(outs)
        edges.append(e)
        v = g.tgt(e)
    return edges, v


def random_term(rng: random.Random, g: Graph, max_len: int) -> str:
    """``c S_alpha S_beta*`` with alpha and beta ending at one vertex."""
    while True:
        alpha, v = random_path(rng, g, rng.choice(g.vertices), max_len)
        beta, u = random_path(rng, g, rng.choice(g.vertices), max_len)
        if u == v:
            break
    letters = alpha + [e + "*" for e in reversed(beta)]
    return rng.choice(COEFFICIENTS) + (" ".join(letters) if letters else v)


def random_expression(rng: random.Random, g: Graph, terms: int, max_len: int) -> str:
    text = random_term(rng, g, max_len)
    for _ in range(terms - 1):
        text += rng.choice((" + ", " - ")) + random_term(rng, g, max_len)
    return text


class LeavittProducts(Workload):
    name = "leavitt_products"
    round_ops = LEAVITT_POOL
    trace_ops = round_ops

    def bind(self, tracer) -> None:
        w = tracer.wrap
        self.parse_expression = w("expressions.parse_expression", parse_expression)
        self.multiply = w("algebra.multiply", multiply, lambda r: len(r.terms))
        self.star = w("algebra.star", AlgebraElement.star)
        self.render = w("algebra.render", AlgebraElement.__str__)
        self.induce_leavitt = w("algebra.induce_leavitt", induce_leavitt)
        self.quotient_map = w("admissible.quotient_map", quotient_map)

    def setup(self) -> list[str]:
        (self.spec,) = square_specs(self.rng(), (LEAVITT_SQUARE,))
        inst = gen.prefix_code_square(self.spec["k"], self.spec["code"], self.spec["exits"],
                                      self.spec["bound"])
        self.f = inst.realize_f()
        self.pi2 = inst.pi2
        self.ctx = AlgebraContext.leavitt(inst.amb1)
        self.target = AlgebraContext.leavitt(inst.sub2)
        g = self.ctx.graph
        self.pool = []
        for j in range(LEAVITT_POOL):
            rng = self.rng(j)
            self.pool.append((random_expression(rng, g, LEAVITT_TERMS, LEAVITT_PATH_LEN),
                              random_expression(rng, g, LEAVITT_TERMS, LEAVITT_PATH_LEN)))
        errors = []
        for i in range(3):
            inp = self.make(i, "warm")
            err = self.check(inp, self.run(inp))
            if err:
                errors.append(f"warm-up operation {i}: {err}")
        return errors

    def make(self, i: int, tag: str = ""):
        return self.pool[i % LEAVITT_POOL]

    def run(self, inp):
        a = self.parse_expression(self.ctx, inp[0])
        b = self.parse_expression(self.ctx, inp[1])
        product = self.multiply(a, b)
        product_star = self.star(product)
        image = self.quotient_map(self.pi2, self.induce_leavitt(self.f, product))
        rendered = (self.render(product), self.render(product_star), self.render(image))
        return rendered, a, b, product, product_star, image

    def check(self, inp, out):
        rendered, a, b, product, product_star, image = out
        if product_star != multiply(b.star(), a.star()):
            return "(ab)* differs from b* a*"
        if image.context != self.target:
            return "the quotient image does not live in L(sub2)"
        if rendered[0] != str(product) or rendered[2] != str(image):
            return "rendering is not deterministic"
        return None

    def items(self, inp, out) -> int:
        return len(out[3].terms)

    def digest(self, inp, out) -> str:
        return sha256("\n".join(out[0]))

    def sizes(self) -> dict:
        return {"square": {k: self.spec[k] for k in ("k", "exits", "bound")}
                | {"code_words": len(self.spec["code"])},
                "terms_per_expression": LEAVITT_TERMS, "max_path_length": LEAVITT_PATH_LEN}


# -- tower_survey ------------------------------------------------------------

# domain shapes: (vertices, edges)
DOMAINS = {
    "edge": (["a", "b"], [("x", "a", "b")]),
    "line3": (["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")]),
    "cycle2": (["a", "b"], [("x", "a", "b"), ("y", "b", "a")]),
    "parallel2": (["a", "b"], [("x", "a", "b"), ("y", "a", "b")]),
    "rose2": (["a"], [("x", "a", "a"), ("y", "a", "a")]),
    "star2": (["a", "b", "c"], [("x", "a", "b"), ("y", "a", "c")]),
    "costar2": (["a", "b", "c"], [("x", "a", "c"), ("y", "b", "c")]),
}

# One round of TOWER_SLOTS operations.  Random codomains are redrawn until
# the homomorphism count lies in the narrow HOM_BAND, so those operations
# cost about the same for every seed; K_6 sits below them, K_7 and the roses
# with exits just above.  The complete digraph K_8 is the dense tail: its
# exponential cycle search and path enumeration cost several times an
# ordinary operation.  With 20 slots, p50 falls inside the cluster of the 12
# random operations, and p90 inside the K_8 cluster (3 slots, 15%), not on
# the gap below it.
#   (kind, size, image length ell, path length L, domains)
TOWER_SLOTS = (
    [("random", 6, 2, 3, ("line3", "star2", "costar2"))] * 12
    + [("complete", 6, 1, 3, ("line3",))]
    + [("rose_exits", 4, 2, 4, ("rose2",))] * 2
    + [("complete", 7, 1, 3, ("edge", "cycle2", "parallel2"))] * 2
    + [("complete", 8, 1, 2, ("edge", "cycle2", "parallel2"))] * 3
)
HOM_BAND = (290, 330)


def random_cod(rng, n):
    vs = [f"v{i}" for i in range(n)]
    m = rng.randint(2 * n + 1, 3 * n)
    return vs, [(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(m)]


def complete_cod(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{i}_{j}", a, b) for i, a in enumerate(vs) for j, b in enumerate(vs) if i != j]


def rose_exits_cod(rng, k):
    exits = rng.randint(2, 4)
    vs = ["v"] + [f"w{j}" for j in range(exits)]
    return vs, ([(f"l{i}", "v", "v") for i in range(k)]
                + [(f"x{j}", "v", f"w{j}") for j in range(exits)])


def walk_counts(vs, es, max_len):
    """W[a][b] = number of paths from a to b of length <= max_len."""
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    step = [[0] * n for _ in range(n)]
    for _, s, t in es:
        step[index[s]][index[t]] += 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = [row[:] for row in power]
    for _ in range(max_len):
        power = [[sum(power[i][k] * step[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    return index, total


def expected_hom_count(dom, cod, ell) -> int:
    """Vertex-injective path homomorphisms with images of length <= ell."""
    dvs, des = dom
    index, walks = walk_counts(*cod, ell)
    count = 0
    for choice in itertools.permutations(cod[0], len(dvs)):
        vmap = dict(zip(dvs, choice))
        ways = 1
        for _, s, t in des:
            ways *= walks[index[vmap[s]]][index[vmap[t]]]
            if not ways:
                break
        count += ways
    return count


def has_exitless_cycle(vs, es) -> bool:
    """A vertex-simple cycle has no exit iff each of its vertices emits
    exactly one edge, so look for a cycle among the out-degree-1 vertices."""
    out = {v: [] for v in vs}
    for _, s, t in es:
        out[s].append(t)
    for v in vs:
        u, seen = v, set()
        while len(out[u]) == 1 and u not in seen:
            seen.add(u)
            u = out[u][0]
            if u == v:
                return True
    return False


def rename(shape, prefix):
    vs, es = shape
    return Graph([prefix + v for v in vs], [(prefix + e, prefix + s, prefix + t) for e, s, t in es])


class TowerSurvey(Workload):
    name = "tower_survey"
    round_ops = len(TOWER_SLOTS)
    trace_ops = 2 * round_ops

    def bind(self, tracer) -> None:
        w = tracer.wrap
        self.loops_have_exits = w("graphs.loops_have_exits", vertex_simple_loops_have_exits)
        self.paths_up_to = w("graphs.paths_up_to", paths_up_to, len)
        self.enumerate_path_homs = w(
            "morphisms.enumerate_path_homs",
            lambda *args, **kwargs: list(enumerate_path_homs(*args, **kwargs)), len)
        self.classify = w("morphisms.classify", classify)

    def setup(self) -> list[str]:
        self.shapes = [self.shape(j) for j in range(len(TOWER_SLOTS))]
        errors = []
        for i in range(len(TOWER_SLOTS)):
            inp = self.make(i, "warm")
            err = self.check(inp, self.run(inp))
            if err:
                errors.append(f"warm-up operation {i}: {err}")
        return errors

    def shape(self, j: int):
        """Slot ``j``'s (dom, cod) shapes, ell, L and the expected counts."""
        rng = self.rng(j)
        kind, size, ell, length, doms = TOWER_SLOTS[j]
        dom_name = rng.choice(doms)
        dom = DOMAINS[dom_name]
        if kind == "complete":
            cod = complete_cod(size)
        elif kind == "rose_exits":
            cod = rose_exits_cod(rng, size)
        if kind != "random":
            homs = expected_hom_count(dom, cod, ell)
        else:
            homs = -1
            while not HOM_BAND[0] <= homs <= HOM_BAND[1]:
                cod = random_cod(rng, size)
                homs = expected_hom_count(dom, cod, ell)
        expected = {
            "loops_have_exits": not has_exitless_cycle(*cod),
            "paths": sum(map(sum, walk_counts(*cod, length)[1])),
            "homs": homs,
        }
        return dom, cod, ell, length, expected

    def make(self, i: int, tag: str = ""):
        dom, cod, ell, length, expected = self.shapes[i % len(TOWER_SLOTS)]
        prefix = f"{tag}{i}_"
        return rename(dom, prefix), rename(cod, prefix), ell, length, expected

    def run(self, inp):
        dom, cod, ell, length, _ = inp
        exits_ok = self.loops_have_exits(cod).ok
        paths = self.paths_up_to(cod, length)
        homs = self.enumerate_path_homs(dom, cod, ell, vertex_injective_only=True)
        tally = Counter()
        for h in homs:
            verdict = self.classify(h)
            tally[tuple(verdict.satisfies(c) for c in CATEGORY_NAMES)] += 1
        return exits_ok, len(paths), len(homs), tally

    def check(self, inp, out):
        expected = inp[4]
        exits_ok, paths, homs, tally = out
        if exits_ok != expected["loops_have_exits"]:
            return f"loops-have-exits says {exits_ok}, the out-degree check says otherwise"
        if paths != expected["paths"]:
            return f"{paths} paths enumerated, walk counts give {expected['paths']}"
        if homs != expected["homs"] or sum(tally.values()) != homs:
            return f"{homs} homomorphisms enumerated, walk counts give {expected['homs']}"
        for key in tally:
            c = dict(zip(CATEGORY_NAMES, key))
            implied = (
                c["RMBPG"] <= c["MBPG"], c["RMBPG"] <= c["RMIPG"], c["RMIPG"] <= c["MIPG"],
                c["MBPG"] <= c["MIPG"], c["MBPG"] <= c["BPG"], c["MIPG"] <= c["IPG"],
                c["BPG"] <= c["IPG"], c["IPG"] <= c["PG"], c["IPG"],
            )
            if not all(implied):
                return f"class tower violated by {c}"
        return None

    def items(self, inp, out) -> int:
        return out[2]

    def digest(self, inp, out) -> str:
        exits_ok, paths, homs, tally = out
        return sha256(json.dumps([exits_ok, paths, homs, sorted(tally.items())]))

    def sizes(self) -> dict:
        return {"slots": [list(s[:4]) for s in TOWER_SLOTS], "hom_band": list(HOM_BAND)}


# -- cli_commands ------------------------------------------------------------

FIXTURES = "src/pathalg/fixtures"
GENERATED = "{square}"
CLI_SQUARE = ("prefix-code", 2, 3, 1, 3)
# 13 commands: an odd count that puts p50 and p90 inside one command's
# cluster of latencies (see PULLBACK_SQUARES)
CLI_COMMANDS = (
    ("classify", "phi_rp2"),
    ("classify", f"{FIXTURES}/phi_rp2.json", "--json"),
    ("eval", "L(rp2)", "1/2 s r r* + t t* - 2 s s* + r"),
    ("eval", "L(rp2)", "s r r* + t t*", "--apply", "phi_rp2"),
    ("eval", "C(loop)", "e e* + 3 e", "--apply", "loop_to_pt"),
    ("compose", "rose2_to_loop", "loop_square"),
    ("admissible", "loop_in_toeplitz"),
    ("admissible", f"{FIXTURES}/loop_in_toeplitz.json", "--json"),
    ("pullback", GENERATED, "--json"),
    ("pullback", f"{FIXTURES}/rp2q.json", "--json"),
    ("pullback", "rp2q", "--bound", "4", "--json"),
    ("examples",),
    ("list",),
)
SUBCOMMANDS = ("classify", "eval", "compose", "admissible", "pullback", "examples", "list")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli_golden_path(j: int) -> str:
    return os.path.join(GOLDEN_DIR, "cli", f"{j:02d}-{CLI_COMMANDS[j][0]}.out")


class CliCommands(Workload):
    name = "cli_commands"
    round_ops = len(CLI_COMMANDS)
    trace_ops = 2 * round_ops

    def bind(self, tracer) -> None:
        self.commands = {sub: tracer.wrap(f"cli.{sub}", self._spawn) for sub in SUBCOMMANDS}

    def _spawn(self, argv):
        return subprocess.run([sys.executable, "-m", "pathalg", *argv], cwd=ROOT,
                              capture_output=True, timeout=60)

    def setup(self) -> list[str]:
        (self.spec,) = square_specs(self.rng(), (CLI_SQUARE,))
        self.square = os.path.relpath(os.path.join(self.workdir, "square.json"), ROOT)
        write_square(self.spec, os.path.join(ROOT, self.square))
        self.goldens = {}
        for j, argv in enumerate(CLI_COMMANDS):
            if GENERATED not in argv:
                with open(cli_golden_path(j), "rb") as fh:
                    self.goldens[j] = fh.read()
        errors = []
        for j in range(len(CLI_COMMANDS)):
            inp = self.make(j)
            err = self.check(inp, self.run(inp))
            if err:
                errors.append(f"warm-up command {j}: {err}")
        return errors

    def make(self, i: int, tag: str = ""):
        j = i % len(CLI_COMMANDS)
        return j, [self.square if arg == GENERATED else arg for arg in CLI_COMMANDS[j]]

    def run(self, inp):
        argv = inp[1]
        return self.commands[argv[0]](argv)

    def check(self, inp, out):
        j, argv = inp
        if out.returncode != 0:
            return f"`pathalg {' '.join(argv)}` exited {out.returncode}: {out.stderr[-300:]!r}"
        if j in self.goldens:
            if out.stdout != self.goldens[j]:
                return f"`pathalg {' '.join(argv)}` stdout differs from {cli_golden_path(j)}"
            return None
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            return "pullback --json printed invalid JSON"
        return pullback_payload_check(payload["hypotheses"], payload["commutativity"],
                                      payload["kernel"], self.spec)

    def items(self, inp, out) -> int:
        return 1

    def digest(self, inp, out) -> str:
        return sha256(out.stdout + b"exit %d" % out.returncode)

    def sizes(self) -> dict:
        return {"commands": [" ".join(argv) for argv in CLI_COMMANDS],
                "generated_square": {k: self.spec[k] for k in ("k", "exits", "bound",
                                                              "kernel_pairs")}}


WORKLOADS = {w.name: w for w in (PullbackSquare, LeavittProducts, TowerSurvey, CliCommands)}
