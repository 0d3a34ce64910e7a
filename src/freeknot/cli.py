"""Command-line front end.

One subcommand per library operation, batch-friendly.  The subcommands from
parse to bound take one Gauss code, inline or via --file (whole-line '#'
comments skipped); realizable takes an adjacency list the same way; bfs
takes two codes inline, and enumerate and random take sizes.  Output is
text (default), JSON, or DOT where a graph is produced.  Exit status: 0
success, 1 usage or parse error, 2 precondition violation (e.g. wrong
component count), 3 budget exhausted.  Stochastic subcommands require an
explicit --seed; outputs are byte-identical for identical argv and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import analysis, brackets, moves, parity
from .diagrams import (
    BudgetError,
    CodeError,
    GaussCode,
    PreconditionError,
    canonicalize,
    code_lines,
    enumerate_codes,
    parse_gauss_code,
    render_gauss_code,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _read_input(args) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return "\n".join(code_lines(fh.read()))
    if args.code is not None:
        return args.code
    raise CodeError("no input: pass CODE inline or --file PATH")


def _input_code(args) -> GaussCode:
    return parse_gauss_code(_read_input(args))


def _text(value) -> str:
    """A payload value in text output: true/false, ``-`` for None."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "-" if value is None else str(value)


def _fields(payload: dict, *keys) -> list[str]:
    """Text lines ``key: value`` for the given payload keys, all by default."""
    return [f"{k}: {_text(payload[k])}" for k in keys or payload]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (JSON payload, text lines[, exit status]);
# ``main`` adds the subcommand name to a payload dict as "command"


def _cmd_parse(args):
    code = _input_code(args)
    out = {
        "code": render_gauss_code(code),
        "components": code.component_count,
        "chords": code.chord_count,
        "free_loops": code.free_loops,
    }
    return out, [out["code"]] + _fields(out, "components", "chords", "free_loops")


def _cmd_canon(args):
    can = str(canonicalize(_input_code(args)))
    return {"code": can}, [can]


def _cmd_components(args):
    count = _input_code(args).component_count
    return {"count": count}, [str(count)]


def _cmd_reduce(args):
    reduced, saw = moves.reduce_r2(_input_code(args))
    out = {"code": str(reduced), "saw_free_loop": saw}
    return out, [out["code"]] + _fields(out, "saw_free_loop")


def _cmd_parity(args):
    code = _input_code(args)
    pa = parity.parity(code, args.rule)
    parities = {str(lab): "odd" if pa.is_odd(lab) else "even" for lab in pa.chords}
    return {"rule": args.rule, "parities": parities}, _fields(parities)


def _cmd_orientable(args):
    ok = parity.source_sink_orientable(_input_code(args))
    return {"orientable": ok}, [_text(ok)]


def _cmd_interlacement(args):
    g = parity.interlacement(_input_code(args))
    if args.format == "dot":
        return None, [g.to_dot()]
    verts = [str(v) for v in g.vertices]
    edges = sorted(sorted((str(a), str(b))) for a, b in (tuple(e) for e in g.edges))
    return ({"vertices": verts, "edges": edges},
            ["vertices: " + " ".join(verts)] + [f"{a} {b}" for a, b in edges])


def _sum(name: str):
    """Handler giving the sorted terms of ``brackets.<name>`` of the input (text
    ``0`` if none).  The name is looked up per call, so a rebinding is seen."""
    def handler(args):
        terms = [str(t) for t in getattr(brackets, name)(_input_code(args)).sorted_terms()]
        return terms, terms or ["0"]
    return handler


def _cmd_bound(args):
    code = _input_code(args)
    k = code.component_count
    bound = {1: analysis.lower_bound_knot, 2: analysis.lower_bound_link2}.get(k)
    if bound is None:
        raise PreconditionError(f"bounds exist for 1- or 2-component diagrams, found {k}")
    cert = bound(code)
    out = {
        "diagram": str(cert.diagram),
        "bound": cert.bound,
        "tight": cert.tight,
        "witness": cert.witness_invariant,
        "term": str(cert.witness_term) if cert.witness_term is not None else None,
    }
    return out, _fields(out)


def _cmd_realizable(args):
    g = analysis.parse_adjacency(_read_input(args))
    witness = analysis.realizable(g)
    text = str(witness) if witness is not None else None
    return {"realizable": witness is not None, "witness": text}, [text or "not realizable"]


def _cmd_bfs(args):
    a = parse_gauss_code(args.code)
    b = parse_gauss_code(args.code2)
    report = analysis.bfs_equivalent(a, b, args.max_vertices, args.max_depth)
    out = {
        "reached": report.reached,
        "visited": report.visited,
        "min_vertices": report.min_vertices,
        "depth": report.depth_reached,
        "path": list(report.path) if report.path is not None else None,
    }
    lines = _fields(out, "reached", "visited", "min_vertices", "depth")
    if out["path"]:
        lines.append(f"path: {' ; '.join(out['path'])}")
    return out, lines, EXIT_OK if report.reached else EXIT_BUDGET


@functools.cache
def _rendered_codes(n: int, k: int) -> tuple[str, ...]:
    """``enumerate_codes(n, k)`` as text, rendered once per size, as
    ``enumerate_codes`` caches the classes themselves."""
    return tuple(map(str, enumerate_codes(n, k)))


def _cmd_enumerate(args):
    codes = _rendered_codes(args.n, args.k)
    return {"codes": codes}, codes


def _cmd_random(args):
    code = analysis.random_diagram(args.n, args.k, args.seed)
    if args.moves:
        code = analysis.random_moves(code, args.moves, args.max_vertices, args.seed + 1)
    return {"code": render_gauss_code(code)}, [render_gauss_code(code)]


# ---------------------------------------------------------------------------
# the subcommand table and the parser


class Spec(NamedTuple):
    """One subcommand.  ``args`` are (name, argparse keywords) pairs added
    after the Gauss-code input (CODE or --file, if ``code``) and --format."""

    handler: Callable
    help: str
    args: tuple = ()
    code: bool = True
    formats: tuple = ("text", "json")


_INT = {"type": int}
_INT_REQUIRED = {"type": int, "required": True}

COMMANDS = {
    "parse": Spec(_cmd_parse, "validate a code and echo its shape"),
    "canon": Spec(_cmd_canon, "canonical form of a code"),
    "components": Spec(_cmd_components, "number of unicursal components"),
    "reduce": Spec(_cmd_reduce, "unique R2-irreducible representative"),
    "parity": Spec(_cmd_parity, "odd/even marking of every chord",
                   (("--rule", {"choices": (parity.GAUSSIAN, parity.COMPONENT), "required": True}),)),
    "orientable": Spec(_cmd_orientable, "source-sink orientability"),
    "interlacement": Spec(_cmd_interlacement, "chord interlacement graph",
                          formats=("text", "json", "dot")),
    "delta": Spec(_sum("delta"), "two-component splitting sum"),
    "abracket": Spec(_sum("alex_bracket"), "even-smoothing bracket of a knot diagram"),
    "kbracket": Spec(_sum("kauffman_bracket"), "even-smoothing bracket of a 2-component diagram"),
    "kdelta": Spec(_sum("kdelta"), "bracket composed along the splitting sum"),
    "bound": Spec(_cmd_bound, "minimality certificate from the state sums"),
    "realizable": Spec(_cmd_realizable,
                       "witness diagram for an abstract graph (adjacency lines 'u: v w')"),
    "bfs": Spec(_cmd_bfs, "bounded reachability between two codes", (
        ("code", {"help": "start Gauss code"}), ("code2", {"help": "target Gauss code"}),
        ("--max-vertices", _INT_REQUIRED), ("--max-depth", _INT_REQUIRED)), code=False),
    "enumerate": Spec(_cmd_enumerate, "all diagram classes with n chords, k components",
                      (("n", _INT), ("k", _INT)), code=False),
    "random": Spec(_cmd_random, "seeded random diagram, optionally scrambled by moves", (
        ("n", _INT), ("k", _INT), ("--seed", _INT_REQUIRED), ("--moves", {"type": int, "default": 0}),
        ("--max-vertices", {"type": int, "default": 12})), code=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="freeknot", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.code:
            p.add_argument("code", nargs="?", help="Gauss code (or use --file)")
            p.add_argument("--file", help="read the input from a file")
        p.add_argument("--format", choices=spec.formats, default="text")
        for arg, kwargs in spec.args:
            p.add_argument(arg, **kwargs)
        p.set_defaults(handler=spec.handler)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        payload, lines, *status = args.handler(args)
        if args.format == "json":
            if isinstance(payload, dict):
                payload = {"command": args.command, **payload}
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return status[0] if status else EXIT_OK
    except (PreconditionError, BudgetError, CodeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PreconditionError):
            return EXIT_PRECONDITION
        return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
