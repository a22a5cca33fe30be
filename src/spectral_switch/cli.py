"""Command-line front end.

Subcommands: build, switch, verify, recipe, search, spectrum.  Graph inputs
accept a scheme-parameter string (J{2}(8,4), Jq{0}(6,3;q=2)) or a path to a
graph6 or edge-list JSON file.  Exit codes: 0 success, 1 usage error,
2 invalid spec, 3 inconclusive (including a search stopped by its budget),
4 resource cap exceeded, 5 graph too large for the charpoly kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .canon import BudgetExhaustedError, DEFAULT_NODE_BUDGET
from .certify import nonisomorphic, transitive_nonisomorphic
from .families import (
    REPORT_SCHEMA_VERSION,
    RecipeStageError,
    SPORADIC_NAMES,
    recipe_halfrange_2kk,
    recipe_j2n4,
    recipe_qkneser,
    recipe_sporadic,
    run_recipe,
)
from .graphcore import Graph, decode_graph6, encode_graph6, Graph6ParseError
from .schemes import (
    _PARAM_RE,
    DEFAULT_VERTEX_CAP,
    SchemeParams,
    VertexCapExceeded,
    build,
)
from .search import (
    SearchConfig,
    johnson_block_triples,
    johnson_core_triples,
    search_gm4,
    search_wqh33,
)
from .spectra import (
    _SWITCHING_VERDICT,
    CharpolySizeError,
    _cospectral,
    eigenvalues_float,
    random_primes,
    signature,
)
from .switching import (
    InvalidSpecError,
    apply_switching,
    spec_from_json_dict,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SPEC = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAP = 4
EXIT_CHARPOLY_SIZE = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_USAGE, message)


def _at_least_one(noun: str):
    """An argparse type for --primes, --cap and the node --budget."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(f"need at least one {noun}, got {text!r}")
        return value
    return count


def _check_file_cap(src: str, n, cap: int) -> None:
    """VertexCapExceeded naming the file when its vertex count n passes cap."""
    if type(n) is int and n > cap:
        exc = VertexCapExceeded(n, cap)
        exc.args = (f"{src}: graph has {n} vertices, exceeding the cap {cap}",)
        raise exc


def _load_graph(src: str, cap: int) -> Graph:
    """A scheme string's graph, or a graph6 or JSON file's.  A string in the
    scheme grammar whose values are invalid raises SchemeParams' ValueError.
    A JSON file's n meets the cap before any row is built."""
    if _PARAM_RE.match(src.strip()):
        return build(SchemeParams.parse(src), cap)
    if not os.path.exists(src):
        raise CliError(
            EXIT_USAGE,
            f"{src!r} is neither parseable scheme parameters nor an existing file",
        )
    with open(src, "rb") as fh:
        data = fh.read()
    stripped = data.lstrip()
    if stripped.startswith(b"{"):
        try:
            obj = json.loads(data)
            _check_file_cap(src, obj.get("n"), cap)
            return Graph.from_json_dict(obj)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"{src}: {exc}")
    try:
        g = decode_graph6(data.splitlines()[0] if data else data)
    except Graph6ParseError as exc:
        raise CliError(EXIT_USAGE, f"{src}: {exc}")
    _check_file_cap(src, g.n, cap)
    return g


def _write_graph(g: Graph, path: str, fmt: str) -> None:
    if fmt == "graph6":
        with open(path, "wb") as fh:
            fh.write(encode_graph6(g) + b"\n")
    else:
        with open(path, "w") as fh:
            json.dump(g.to_json_dict(), fh)
            fh.write("\n")


def _stats_line(g: Graph) -> str:
    deg = g.is_regular()
    if deg is None:
        degs = g.degrees()
        return f"n={g.n} m={g.num_edges()} degrees={min(degs)}..{max(degs)}"
    return f"n={g.n} m={g.num_edges()} k-regular={deg}"


def _load_spec(path: str, g: Graph):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INVALID_SPEC, f"spec file is not valid JSON: {exc}")
    try:
        return spec_from_json_dict(obj, g)
    except (ValueError, InvalidSpecError) as exc:
        raise CliError(EXIT_INVALID_SPEC, str(exc))


def _emit_report(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_build(args) -> int:
    g = build(SchemeParams.parse(args.params), args.cap)
    if args.out:
        _write_graph(g, args.out, args.format)
    print(_stats_line(g))
    return EXIT_OK


def cmd_switch(args) -> int:
    g = _load_graph(args.graph, args.cap)
    spec = _load_spec(args.spec, g)
    report = validate(g, spec)
    if not report.valid:
        for violation in report.violations[:5]:
            print(f"violation {violation.condition}: {violation.message}", file=sys.stderr)
        raise CliError(EXIT_INVALID_SPEC,
                       f"spec fails {len(report.violations)} condition(s)")
    mate = apply_switching(g, spec)
    if args.out:
        _write_graph(mate, args.out, args.format)
    print(_stats_line(mate))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.cap)
    spec = _load_spec(args.spec, g)
    report = validate(g, spec)
    out = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "verify",
        "seed": args.seed,
        "num_primes": args.primes,
        "validation": report.to_json_dict(),
    }
    if not report.valid:
        _emit_report(out, args.report)
        return EXIT_INVALID_SPEC
    mate = apply_switching(g, spec)
    nv = None
    if _PARAM_RE.match(args.graph.strip()):  # a scheme graph: vertex-transitive
        nv = transitive_nonisomorphic(g, mate, spec.all_vertices())
    if nv is None:
        nv = nonisomorphic(g, mate, args.budget)
    out["cospectral"] = _SWITCHING_VERDICT.to_json_dict()
    out["nonisomorphic"] = nv.to_json_dict()
    ok = report.valid and nv.distinguished
    out["passed"] = ok
    _emit_report(out, args.report)
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


# recipe name -> (constructor, the flags it takes in argument order, usage hint)
_RECIPES = {
    "j2n4": (recipe_j2n4, ("n",), ""),
    "halfrange": (recipe_halfrange_2kk, ("k",), ""),
    "qkneser": (recipe_qkneser, ("n", "k"), ""),
    "sporadic": (recipe_sporadic, ("name",), f" (one of {', '.join(SPORADIC_NAMES)})"),
}


def cmd_recipe(args) -> int:
    ctor, flags, hint = _RECIPES[args.recipe_name]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        needs = " and ".join(f"--{flag}" for flag in flags)
        raise CliError(EXIT_USAGE, f"recipe {args.recipe_name} needs {needs}{hint}")
    report = run_recipe(ctor(*values), num_primes=args.primes, seed=args.seed,
                        budget=args.budget, cap=args.cap)
    _emit_report(report.to_json_dict(), args.report)
    return EXIT_OK if report.passed else EXIT_INCONCLUSIVE


# --pattern -> wqh33 candidate generator
_PATTERNS = {"core": johnson_core_triples, "blocks": johnson_block_triples}


def cmd_search(args) -> int:
    try:
        cfg = SearchConfig(mode=args.mode, max_candidates=args.limit,
                           time_budget=args.budget, dedup=not args.no_dedup)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc))
    g = _load_graph(args.graph, args.cap)
    if args.mode == "gm4":
        result = search_gm4(g, cfg)
    else:
        if args.candidates:
            with open(args.candidates) as fh:
                candidates = json.load(fh)
            if not isinstance(candidates, list):
                raise ValueError(f"{args.candidates}: not a JSON list of candidate triples")
        else:
            try:
                params = SchemeParams.parse(args.graph)
            except ValueError:
                raise CliError(
                    EXIT_USAGE,
                    "wqh33 needs --candidates, or a johnson scheme parameter "
                    "string as --graph so --pattern can generate them",
                )
            if params.kind != "johnson":
                raise CliError(EXIT_USAGE, "--pattern generators need a johnson scheme")
            candidates = _PATTERNS[args.pattern](params.n, params.k)
        result = search_wqh33(g, candidates, candidates, cfg)
    out = result.to_json_dict()
    out["schema_version"] = REPORT_SCHEMA_VERSION
    out["kind"] = "search"
    out["mode"] = args.mode
    _emit_report(out, args.out)
    if result.partial:
        print(f"search budget reached: --limit {args.limit}, --budget {args.budget} s",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph, args.cap)
    primes = random_primes(args.primes, args.seed)
    sig = signature(g, primes)
    out = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "spectrum",
        "seed": args.seed,
        "num_primes": args.primes,
        "signature": sig.to_json_dict(),
    }
    if args.eigenvalues:
        out["eigenvalues_float"] = eigenvalues_float(g)
    if args.compare:
        other = _load_graph(args.compare, args.cap)
        # g's charpolys are in the signature already
        out["cospectral"] = _cospectral(g, other, primes, args.seed,
                                        coeffs1=sig.coeffs).to_json_dict()
    _emit_report(out, args.report)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--cap", type=_at_least_one("vertex"), default=DEFAULT_VERTEX_CAP,
                   help="vertex cap (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spectral-switch",
                     description="Johnson/Grassmann graphs, spectrum-preserving "
                                 "switching, and non-isomorphism certification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a scheme graph")
    p.add_argument("params", help="scheme parameters, e.g. 'J{2}(8,4)'")
    p.add_argument("--out", help="output file")
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("switch", help="apply a switching spec")
    p.add_argument("--graph", required=True, help="scheme params or graph file")
    p.add_argument("--spec", required=True, help="switching spec JSON file")
    p.add_argument("--out", help="output file for the switched graph")
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")
    _add_common(p)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("verify", help="validate, switch, test cospectrality "
                                      "and non-isomorphism")
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--report", help="write the JSON report here as well")
    p.add_argument("--primes", type=_at_least_one("prime"), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least_one("node"), default=DEFAULT_NODE_BUDGET,
                   help="canonical labeling node budget")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("recipe", help="run a named construction end to end")
    p.add_argument("recipe_name", choices=tuple(_RECIPES))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--name", help="sporadic table entry name")
    p.add_argument("--report", help="write the JSON report here as well")
    p.add_argument("--primes", type=_at_least_one("prime"), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least_one("node"), default=DEFAULT_NODE_BUDGET)
    _add_common(p)
    p.set_defaults(func=cmd_recipe)

    p = sub.add_parser("search", help="search for switching sets")
    p.add_argument("--mode", choices=("gm4", "wqh33"), required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--limit", type=int, default=10_000_000,
                   help="max candidates examined")
    p.add_argument("--budget", type=float, default=300.0, help="time budget, seconds")
    p.add_argument("--out", help="write found specs here as well")
    p.add_argument("--pattern", choices=tuple(_PATTERNS), default="core",
                   help="wqh33 candidate generator")
    p.add_argument("--candidates", help="JSON file of candidate triples (wqh33)")
    p.add_argument("--no-dedup", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("spectrum", help="charpoly signature, optional comparison")
    p.add_argument("--graph", required=True)
    p.add_argument("--compare", help="second graph to test cospectrality against")
    p.add_argument("--primes", type=_at_least_one("prime"), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eigenvalues", action="store_true",
                   help="include floating-point eigenvalues")
    p.add_argument("--report", help="write the JSON report here as well")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)
    return parser


# (exception, exit code, message prefix); the first match wins
_EXITS = (
    (InvalidSpecError, EXIT_INVALID_SPEC, "invalid spec: "),
    (VertexCapExceeded, EXIT_CAP, ""),
    (BudgetExhaustedError, EXIT_INCONCLUSIVE, ""),
    (CharpolySizeError, EXIT_CHARPOLY_SIZE, "charpoly size limit: "),
    (ValueError, EXIT_INVALID_SPEC, ""),
    (OSError, EXIT_USAGE, ""),
)


def _exit_for(exc) -> tuple[int, str] | None:
    """(exit code, message prefix) for exc, or None to let it propagate.  A
    failed recipe stage maps by its cause, and to exit 2 when nothing matches."""
    if isinstance(exc, RecipeStageError):
        return _exit_for(exc.__cause__) or (EXIT_INVALID_SPEC, "")
    return next(((code, prefix) for kind, code, prefix in _EXITS
                 if isinstance(exc, kind)), None)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        mapped = _exit_for(exc)
        if mapped is None:
            raise
        code, prefix = mapped
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
