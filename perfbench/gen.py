"""Seeded input generators for the benchmark workloads.

Everything the workloads feed to ``pathalg`` is built here from a
``random.Random``; the program only ever sees the generated inputs.

Pullback squares come from one construction, ``prefix_code_square``:

    amb2  = rose on v with loops e1..ek, plus exits f1..fn : v -> w
    amb1  = rose on v with one loop s_c per word c of a complete prefix code
            over e1..ek, plus one exit x<i>_<j> : v -> w per internal node p_i
            of the code tree and exit f_j
    sub_i = the rose part of amb_i, included by identity on ids
    f     : s_c -> c,  x<i>_<j> -> p_i f_j;  f_res restricts f to the roses

The *thin* family is k = 1 with the code {e1 e1}: it is the rp2q square with
n parallel exit pairs (``s -> e e, r_j -> f_j, t_j -> e f_j``).  The
*prefix-code* family takes k >= 2 and a seeded code.  A complete prefix code
makes f regular, and every word over the loops factors uniquely as code
words followed by an internal node, so every path ending at w has a preimage
no longer than itself.  The spanning kernel pairs at bound b are all pairs of
amb2 paths of length <= b ending at w, which gives the closed form in
``kernel_pairs``.
"""
from __future__ import annotations

import random

from pathalg import GraphInclusion, Graph, PathHom, PullbackInstance


def complete_prefix_code(rng: random.Random, k: int, words: int) -> list[tuple[int, ...]]:
    """A random complete prefix code over letters 0..k-1 with ``words``
    words: the leaves of a random full k-ary tree, in lex order."""
    if k < 1 or (k > 1 and (words - 1) % (k - 1)) or (k == 1 and words != 1):
        raise ValueError(f"no complete {k}-ary prefix code has {words} words")
    if k == 1:
        return [(0, 0)]
    leaves = [()]
    while len(leaves) < words:
        leaf = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(leaf + (a,) for a in range(k))
    return sorted(leaves)


def internal_nodes(code: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Proper prefixes of the code words, shortest first."""
    nodes = {w[:i] for w in code for i in range(len(w))}
    return sorted(nodes, key=lambda p: (len(p), p))


def kernel_pairs(k: int, exits: int, bound: int) -> int:
    """Closed-form count of the spanning kernel pairs of a generated square:
    the squared number of amb2 paths of length <= bound ending at w."""
    words = bound if k == 1 else (k**bound - 1) // (k - 1)
    return (1 + exits * words) ** 2


def prefix_code_square(
    k: int, code: list[tuple[int, ...]], exits: int, bound: int
) -> PullbackInstance:
    loops2 = [f"e{a + 1}" for a in range(k)]
    exits2 = [f"f{j + 1}" for j in range(exits)]
    loops1 = [f"s{i + 1}" for i in range(len(code))]
    nodes = internal_nodes(code)
    exits1 = [(f"x{i}_{j + 1}", p, f) for i, p in enumerate(nodes) for j, f in enumerate(exits2)]

    amb2 = Graph(["v", "w"], [(e, "v", "v") for e in loops2] + [(f, "v", "w") for f in exits2])
    amb1 = Graph(
        ["v", "w"], [(s, "v", "v") for s in loops1] + [(x, "v", "w") for x, _, _ in exits1]
    )
    sub2 = Graph(["v"], [(e, "v", "v") for e in loops2])
    sub1 = Graph(["v"], [(s, "v", "v") for s in loops1])

    def word(letters) -> tuple[str, ...]:
        return tuple(loops2[a] for a in letters)

    emap = {s: word(c) for s, c in zip(loops1, code)}
    f_res = PathHom(sub1, sub2, {"v": "v"}, emap)
    emap.update({x: word(p) + (f,) for x, p, f in exits1})
    f = PathHom(amb1, amb2, {"v": "v", "w": "w"}, emap)

    pi1 = GraphInclusion(sub1, amb1, {"v": "v"}, {s: s for s in loops1})
    pi2 = GraphInclusion(sub2, amb2, {"v": "v"}, {e: e for e in loops2})
    return PullbackInstance(pi1, pi2, f, f_res, bound)
