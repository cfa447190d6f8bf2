"""Command-line interface.

Exit codes: 0 success, 1 semantic verdict against the input (a failed
requirement, inadmissible inclusion, failed verification), 2 malformed
input or usage.  A package error exits with its class's ``exit_code``.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, Mapping

from . import registry
from .errors import AmbiguousInfiniteEmitter, ExpressionError, FileFormatError, PathalgError
from .graphs import Graph
from .morphisms import _FLAGS, CATEGORY_NAMES, PathHom, classify, compose

if TYPE_CHECKING:
    from .algebra import AlgebraContext


def _jsonio():
    """The file-format module, imported by the commands that read a file or
    print JSON: it loads ``json``, which the others do not need."""
    from . import jsonio

    return jsonio


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _named_graphs(graph_files) -> dict[str, Graph]:
    names = dict(registry.GRAPHS)
    for path in graph_files or ():
        names[_stem(path)] = _jsonio().load_graph(path)
    return names


def _resolve(spec: str, builtins: Mapping, load, kind: str):
    """The built-in ``kind`` named ``spec``, or else ``load(spec)`` when
    ``spec`` is a file."""
    if spec in builtins:
        return builtins[spec]
    if os.path.exists(spec):
        return load(spec)
    raise FileFormatError(f"{spec!r} is neither a built-in {kind} nor a readable file")


def _resolve_morphism(spec: str, names: Mapping[str, Graph]) -> PathHom:
    return _resolve(
        spec,
        registry.MORPHISMS,
        lambda path: _jsonio().load_morphism(path, names),
        "morphism",
    )


_CONTEXT_RE = re.compile(r"(P|C|L)(?:\[([^\[\]]*)\])?\((.*)\)")


def _resolve_context(spec: str, names: Mapping[str, Graph]) -> AlgebraContext:
    from .algebra import AlgebraContext

    m = _CONTEXT_RE.fullmatch(spec.strip())
    if m is None:
        raise FileFormatError(
            f"cannot parse context {spec!r}; expected P(g), C(g), C[v1,v2](g) or L(g)"
        )
    kind, vlist, gspec = m.groups()
    graph = _resolve(gspec.strip(), names, lambda path: _jsonio().load_graph(path), "graph")
    if kind != "C" and vlist is not None:
        raise FileFormatError("relation-vertex lists are only meaningful for C[...](g)")
    if kind == "P":
        return AlgebraContext.path(graph)
    if kind == "L":
        return AlgebraContext.leavitt(graph)
    if vlist is None:
        return AlgebraContext.cohn(graph)
    vertices = [v.strip() for v in vlist.split(",") if v.strip()]
    try:
        return AlgebraContext.relative_cohn(graph, vertices)
    except ValueError as exc:
        raise FileFormatError(str(exc))


def _print_json(data) -> None:
    sys.stdout.write(_jsonio().canonical_dumps(data))


def _yes_no(label: str, ok: bool, witness) -> None:
    print(f"{label}: yes" if ok else f"{label}: no  (witness: {witness})")


# -- subcommands ----------------------------------------------------------------


def _cmd_classify(args) -> int:
    names = _named_graphs(args.graphs)
    hom = _resolve_morphism(args.morphism, names)
    verdict = classify(hom)
    if args.json:
        _print_json(verdict.to_json_data())
    else:
        for flag, label in _FLAGS.items():
            _yes_no(label, getattr(verdict, flag), verdict.witnesses.get(flag))
        classes = [name for name in CATEGORY_NAMES if verdict.satisfies(name)]
        print("classes: " + (" ".join(classes) if classes else "(none)"))
    if args.require:
        ok = verdict.satisfies(args.require)
        if not args.json:
            print(f"requirement {args.require}: {'met' if ok else 'NOT met'}")
        return 0 if ok else 1
    return 0


def _render(elem) -> str:
    try:
        return str(elem)
    except ValueError:  # a product of long coefficients past the int-to-str digit limit
        raise ExpressionError(
            "the value has a coefficient with more digits than the interpreter prints"
        ) from None


def _cmd_eval(args) -> int:
    from .algebra import induce
    from .expressions import parse_expression

    names = _named_graphs(args.graphs)
    ctx = _resolve_context(args.context, names)
    elem = parse_expression(ctx, args.expression)
    payload = {"context": ctx.describe(), "expression": args.expression, "value": _render(elem)}
    if args.apply:
        hom = _resolve_morphism(args.apply, names)
        image = induce(hom, elem)
        payload["applied"] = {
            "morphism": args.apply,
            "context": image.context.describe(),
            "value": _render(image),
        }
    if args.json:
        payload["zero"] = elem.is_zero
        _print_json(payload)
    else:
        print(payload["value"])
        if args.apply:
            print(f"image in {payload['applied']['context']}: {payload['applied']['value']}")
    return 0


def _cmd_compose(args) -> int:
    names = _named_graphs(args.graphs)
    first = _resolve_morphism(args.first, names)
    second = _resolve_morphism(args.second, names)
    result = compose(second, first)
    _print_json(_jsonio().morphism_to_data(result, names))
    return 0


def _cmd_admissible(args) -> int:
    from .admissible import breaking_vertices, is_admissible, kernel_generators

    names = _named_graphs(args.graphs)
    inc = _resolve(
        args.inclusion,
        registry.INCLUSIONS,
        lambda path: _jsonio().load_inclusion(path, names),
        "inclusion",
    )
    report = is_admissible(inc)
    try:
        breaking = list(breaking_vertices(inc.amb, set(inc.complement())))
    except AmbiguousInfiniteEmitter as exc:
        breaking, breaking_note = None, str(exc)
    # kernel_generators reads the same breaking vertices, so it cannot raise here
    kernel = kernel_generators(inc) if report.ok and breaking is not None else None

    if args.json:
        payload = report.to_json_data()
        payload["breaking_vertices"] = breaking
        payload["kernel_generators"] = None if kernel is None else kernel.to_json_data()
        _print_json(payload)
    else:
        _yes_no("A1 complement saturated", *report.a1_saturated)
        _yes_no("A2 incoming edges of image vertices are in the image", *report.a2_full_preimage)
        if report.hereditary is None:
            print("hereditary (diagnostic): undecidable from the declared data")
        else:
            _yes_no("hereditary (diagnostic)", *report.hereditary)
        comp = report.complement
        print("complement vertices: " + (" ".join(comp) if comp else "(none)"))
        if breaking is None:
            print(f"breaking vertices: undecidable ({breaking_note})")
        else:
            print("breaking vertices: " + (" ".join(breaking) if breaking else "(none)"))
        if kernel is not None:
            print(f"kernel generators: {len(kernel.vertex_projections)} vertex projection(s), "
                  f"{len(kernel.breaking_corrections)} breaking correction(s)")
        print(f"admissible: {'yes' if report.ok else 'no'}")
    return 0 if report.ok else 1


def _cmd_pullback(args) -> int:
    from .pullback import FAIL, check_commutativity, check_hypotheses, check_kernel_inclusion

    # the built-in instances are factories, so a file resolves to one too
    make = _resolve(
        args.instance,
        registry.INSTANCES,
        lambda path: lambda: _jsonio().load_instance(path),
        "instance",
    )
    inst = make()
    if args.bound is not None:
        if args.bound < 0:
            raise FileFormatError("--bound must be non-negative")
        inst = inst.with_bound(args.bound)
    report = check_hypotheses(inst)
    comm = kernel = None
    if report.overall != FAIL:
        comm = check_commutativity(inst)
        kernel = check_kernel_inclusion(inst, report)

    if args.json:
        _print_json({
            "hypotheses": report.to_json_data(),
            "commutativity": None if comm is None else comm.to_json_data(),
            "kernel": None if kernel is None else kernel.to_json_data(),
        })
    else:
        print(report.render_text())
        if comm is not None:
            print("commutativity on generators:")
            print(comm.render_text())
        if kernel is not None:
            print(f"kernel inclusion (lengths <= {kernel.bound}):")
            print(kernel.render_text())

    ok = report.overall != FAIL and comm is not None and comm.all_ok and kernel.all_ok
    return 0 if ok else 1


def _cmd_examples(args) -> int:
    if args.name is not None and args.name not in registry.EXAMPLES:
        raise FileFormatError(f"unknown example {args.name!r}; try 'pathalg list'")
    names = [args.name] if args.name else list(registry.EXAMPLES)
    all_ok = True
    for name in names:
        result = registry.run_example(name)
        status = "ok" if result.ok else "FAIL"
        print(f"[{status}] {name}: {result.summary}")
        for check in result.checks:
            if check.ok:
                print(f"    ok   {check.label} = {check.actual}")
            else:
                all_ok = False
                print(f"    FAIL {check.label}: expected {check.expected}, got {check.actual}")
    return 0 if all_ok else 1


def _cmd_list(args) -> int:
    print("graphs:")
    for name, g in registry.GRAPHS.items():
        print(f"  {name}  ({len(g.vertices)} vertices, {len(g.edges)} edges)")
    graph_name = {g: name for name, g in registry.GRAPHS.items()}
    print("morphisms:")
    for name, hom in registry.MORPHISMS.items():
        print(f"  {name}  ({graph_name[hom.dom]} -> {graph_name[hom.cod]})")
    print("inclusions:")
    for name, inc in registry.INCLUSIONS.items():
        print(f"  {name}  ({graph_name[inc.sub]} in {graph_name[inc.amb]})")
    print("instances:")
    for name in registry.INSTANCES:
        print(f"  {name}")
    print("examples:")
    for name in registry.EXAMPLES:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathalg",
        description="Classify path homomorphisms, compute in graph algebras, "
        "and verify mixed-pullback squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a path homomorphism")
    p.add_argument("morphism", help="built-in morphism name or JSON file")
    p.add_argument("--graphs", nargs="*", metavar="FILE",
                   help="graph files referencable by their file stem")
    p.add_argument("--require", metavar="CLASS", type=str.upper,
                   choices=list(CATEGORY_NAMES),
                   help="exit 1 unless the morphism lies in CLASS")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate an expression in a graph algebra")
    p.add_argument("context", help="P(g), C(g), C[v1,v2](g) or L(g)")
    p.add_argument("expression")
    p.add_argument("--apply", metavar="MORPHISM",
                   help="push the value through the map this morphism induces")
    p.add_argument("--graphs", nargs="*", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compose", help="compose two morphisms (diagrammatic order)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--graphs", nargs="*", metavar="FILE")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("admissible", help="check a graph inclusion for admissibility")
    p.add_argument("inclusion", help="built-in inclusion name or JSON file")
    p.add_argument("--graphs", nargs="*", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("pullback", help="verify a mixed-pullback square")
    p.add_argument("instance", help="built-in instance name or JSON file")
    p.add_argument("--bound", type=int, help="override the instance's length bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("examples", help="run the worked examples")
    p.add_argument("name", nargs="?", help="run a single example")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("list", help="list built-in objects")
    p.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    sys.exit(main())
