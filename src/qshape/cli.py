"""Command-line front end.

    qshape <build|dims|mult|serre-check|oracle|validate|homology|classify|
            weq|demo> [flags]

Reads representation and morphism files as JSON (stdin when the path is
"-"), emits deterministic reports as JSON or aligned text tables, and
uses the exit code contract: 0 success, 1 bad input (with a JSON path
pointing at the offending field), 2 when a verification step fails (an
oracle mismatch, a mesh residual, an invariant breach).

--max-degree sets the derived-homology depth (default 2).  It is at
least 0 for homology and at least 1 for weq, whose verdict compares
degrees 1 and up, and at most 64 (``MAX_DEGREE``); another value ends in
exit 1 with a path.

Input is bounded: --n and a JSON "n" are at most 32 (``io.MAX_N``), a window
spans at most 129 columns (``io.MAX_WINDOW``), a rank and the rows and cols
of a matrix in a JSON file are at most 128 (``io.MAX_RANK``), a ring
modulus, from "mod:M" or a JSON {"mod": M}, is below 2**31
(``exactalg.rings.MAX_MODULUS``), oracle --max-len is between 0 and 64
(twice the largest n; the default is 2n), demo chain-complex --random is
between 1 and 10,000 draws (``MAX_RANDOM``), and vertices times n**2 is at
most 90,000 for build (``MAX_BUILD``), 400,000 for serre-check and oracle
(``MAX_SCAN``) and 1,500,000 for dims (``MAX_DIMS``).  Other values end in
exit 1 with a path.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .errors import InvalidMorphism, InvalidParameter, QShapeError
from .exactalg import BaseRing
from .fixtures import COUNTER_LABELS, counter_morphism
from .homology import (SIDE_CN, SIDE_CO, classify_object, homology_report,
                       is_weak_equivalence, mesh_homology, mesh_homology_map,
                       zero_test)
from .io import (MAX_N, SchemaError, build_category, category_bundle, dumps,
                 parse_morphism, parse_representation)
from .meshcat import MeshCategory
from .quiver import REPETITIVE_AN, format_vertex, parse_vertex
from .repmod import (complex_to_rep, degree_vertex, kernel_of_morphism,
                     random_complex, validate_representation)

# oracle --max-len: twice the largest n, the default path length at n = MAX_N
MAX_LEN = 2 * MAX_N
# --max-degree: also twice the largest n.  Degrees past 3 are read at sigma(q),
# so depth 64 costs what depth 3 does on a random double A_32 draw over Z:
# 0.39 s in homology_report, ~0.8 s in weq of the identity (2-vCPU KVM guest)
MAX_DEGREE = 2 * MAX_N
# demo chain-complex --random: ~0.5 ms a draw (2-vCPU KVM guest), ~5 s at most
MAX_RANDOM = 10_000
# build: ~27 us of CPU per vertex x n**2 (2-vCPU KVM guest); repetitive --n 12 is 84,672
MAX_BUILD = 90_000
# serre-check and oracle: ~6 us of CPU per vertex x n**2 (2-vCPU KVM guest);
# repetitive --n 16 is 266,240, and --n 24 took 7.1 s and --n 32 24.9 s
MAX_SCAN = 400_000
# dims: ~1.4 us of CPU per vertex x n**2 (2-vCPU KVM guest); repetitive --n 24
# is 1,340,928 and prints 5.9 MB, and --n 32 took 8.3 s, 299 MB and printed 18 MB
MAX_DIMS = 1_500_000

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VERIFICATION = 2


@dataclass
class Report:
    """Machine- and human-renderable command output."""
    command: str
    verdicts: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def to_json(self):
        return {"command": self.command, "verdicts": self.verdicts,
                "tables": self.tables, "witnesses": self.witnesses}

    @staticmethod
    def from_json(data) -> "Report":
        return Report(data["command"], data["verdicts"], data["tables"],
                      data["witnesses"])

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return dumps(self.to_json())
        lines = [f"# {self.command}"]
        for key in sorted(self.verdicts):
            lines.append(f"{key}: {self.verdicts[key]}")
        for name in sorted(self.tables):
            lines.append(f"[{name}]")
            table = self.tables[name]
            if isinstance(table, list):
                for row in table:
                    if isinstance(row, list):
                        lines.append("  " + "  ".join(str(x) for x in row))
                    else:
                        lines.append(f"  {row}")
            elif isinstance(table, dict):
                for k in sorted(table):
                    lines.append(f"  {k}: {table[k]}")
            else:
                lines.append(f"  {table}")
        for key in sorted(self.witnesses):
            lines.append(f"witness {key}: {self.witnesses[key]}")
        return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are bad input, not verification
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _parse_ring(text: str) -> BaseRing:
    try:
        if text.startswith("mod:"):
            return BaseRing.from_json({"mod": int(text.split(":", 1)[1])})
        return BaseRing.from_json(text)
    except (InvalidParameter, ValueError) as exc:
        raise SchemaError("--ring", str(exc)) from None


def _load_json(path: str):
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path) as f:
            raw = f.read()
    try:
        return json.loads(raw)
    # JSONDecodeError, an integer past the digit limit, or nesting past the
    # recursion limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError("/", f"not valid JSON ({exc})") from None


def _flag(field: str) -> str:
    return f"--{field}"


def _category_from_args(args, bound=None) -> MeshCategory:
    """The category the flags name; with ``bound``, one whose vertices x n**2
    is above it is refused at --window when one was given, else at --n."""
    window = args.window or (-2 * args.n, 2 * args.n)
    C = build_category(args.flavor, args.n, window, _parse_ring(args.ring), _flag)
    if bound is not None and (size := len(C.vertices) * C.n ** 2) > bound:
        raise SchemaError(_flag("window" if args.window else "n"),
                          f"vertices x n**2 is {size}, above {bound}")
    return C


def _vertex_arg(text: str, quiver):
    try:
        v = parse_vertex(text)
    except ValueError:
        raise SchemaError("--vertex", "a vertex is q or q@i") from None
    if not quiver.has_vertex(v):
        raise SchemaError("--vertex", f"no vertex {text} in the quiver")
    return v


def _max_degree(args, least: int) -> int:
    if args.max_degree < least:
        raise SchemaError("--max-degree", f"must be at least {least}")
    if args.max_degree > MAX_DEGREE:
        raise SchemaError("--max-degree", f"must be at most {MAX_DEGREE}")
    return args.max_degree


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args):
    C = _category_from_args(args, MAX_BUILD)
    report = Report("build", verdicts={"ok": True},
                    tables={"bundle": category_bundle(C)})
    return report, EXIT_OK


def cmd_dims(args):
    C = _category_from_args(args, MAX_DIMS)
    if args.flavor != "double_an":
        grid = {f"{format_vertex(p)}->{format_vertex(q)}": C.d(p, q)
                for p in C.vertices for q in C.hom_targets(p)}
        return Report("dims", verdicts={"ok": True},
                      tables={"ranks": grid}), EXIT_OK
    n = C.n
    grid = [[C.d(p, q) for q in range(1, n + 1)] for p in range(1, n + 1)]
    expected = [[min(p, q, n + 1 - p, n + 1 - q) for q in range(1, n + 1)]
                for p in range(1, n + 1)]
    ok = grid == expected
    report = Report("dims", verdicts={"ok": ok}, tables={"ranks": grid})
    if not ok:
        report.witnesses["mismatch"] = {"expected": expected}
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def cmd_mult(args):
    C = _category_from_args(args)
    if args.flavor != "double_an":
        raise SchemaError("--flavor", "closed forms exist for double_an only")
    ok = True
    tables = {}
    for p in C.vertices:
        for q in range(1, C.n):
            for star in (False, True):
                ends = (q + 1, q) if star else (q, q + 1)
                closed = C.arrow_mult_matrix(p, q, star)
                oracle = C.arrow_left_mult(C.quiver.arrow_between(*ends), p)
                key = f"T{'*' if star else ''}[{p},{q}]"
                tables[key] = closed.to_json()
                if closed != oracle:
                    ok = False
                    tables[key + ":oracle"] = oracle.to_json()
    return Report("mult", verdicts={"ok": ok}, tables=tables), \
        EXIT_OK if ok else EXIT_VERIFICATION


def cmd_serre_check(args):
    C = _category_from_args(args, MAX_SCAN)
    rep = C.serre_report()
    ok = rep.pop("ok")
    return Report("serre-check", verdicts={"ok": ok, **{
        k: v for k, v in rep.items() if isinstance(v, bool)}},
        tables={"object_map": rep["object_map"]}), \
        EXIT_OK if ok else EXIT_VERIFICATION


def cmd_oracle(args):
    if args.max_len is not None and not 0 <= args.max_len <= MAX_LEN:
        raise SchemaError("--max-len", f"must be between 0 and {MAX_LEN}")
    C = _category_from_args(args, MAX_SCAN)
    max_len = 2 * C.n if args.max_len is None else args.max_len
    mismatches = {}
    for p in C.vertices:
        tables = C.hom_basis_oracle(p, max_len)
        for q in set(tables).union(C.hom_targets(p)):  # elsewhere both are 0
            oracle = tables.get(q, {})
            closed = Counter(b.degree for b in C.hom_basis(p, q)
                             if b.degree <= max_len)
            for degree in oracle.keys() | closed.keys():
                if oracle.get(degree, 0) != closed[degree]:
                    mismatches[f"{format_vertex(p)}->{format_vertex(q)}@{degree}"] = \
                        {"oracle": oracle.get(degree, 0), "closed": closed[degree]}
    ok = not mismatches
    report = Report("oracle", verdicts={"ok": ok, "max_len": max_len},
                    witnesses=mismatches)
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def cmd_validate(args):
    X = parse_representation(_load_json(args.input))
    result = validate_representation(X)
    report = Report("validate", verdicts={"ok": result.ok},
                    witnesses={} if result.ok else result.describe())
    return report, EXIT_OK if result.ok else EXIT_VERIFICATION


def _rejection(command, result) -> Report:
    return Report(command, verdicts={"ok": False},
                  witnesses={"invalid_representation": result.describe()})


def cmd_homology(args):
    max_degree = _max_degree(args, 0)
    X = parse_representation(_load_json(args.input))
    result = validate_representation(X)
    if not result.ok:
        return _rejection("homology", result), EXIT_VERIFICATION
    vertices = None
    if args.vertex is not None:
        vertices = [_vertex_arg(args.vertex, X.category.quiver)]
    sides = {"both": (SIDE_CN, SIDE_CO), "cn": (SIDE_CN,), "co": (SIDE_CO,)}
    tables = homology_report(X, vertices, max_degree, sides[args.side])
    return Report("homology", verdicts={"max_degree": max_degree},
                  tables=tables), EXIT_OK


def cmd_classify(args):
    X = parse_representation(_load_json(args.input))
    result = validate_representation(X)
    if not result.ok:
        return _rejection("classify", result), EXIT_VERIFICATION
    verdict = classify_object(X)
    zt = zero_test(X)
    if not zt["routes_agree"]:
        return Report("classify", verdicts={"ok": False},
                      witnesses={"zero_criterion": zt}), EXIT_VERIFICATION
    return Report("classify",
                  verdicts={"is_exact": verdict.is_exact,
                            "is_projective": verdict.is_projective,
                            "is_injective": verdict.is_injective,
                            "is_zero": zt["is_zero"]},
                  witnesses=verdict.witnesses), EXIT_OK


def cmd_weq(args):
    max_degree = _max_degree(args, 1)
    phi = parse_morphism(_load_json(args.input))
    for rep, label in ((phi.source, "source"), (phi.target, "target")):
        check = validate_representation(rep)
        if not check.ok:
            return _rejection(f"weq ({label})", check), EXIT_VERIFICATION
    try:
        result = is_weak_equivalence(phi, max_degree)
    except InvalidMorphism as exc:
        return Report("weq", verdicts={"ok": False},
                      witnesses={"not_natural": str(exc)}), EXIT_VERIFICATION
    verdicts = {"is_weak_equivalence": result["is_weak_equivalence"]}
    exit_code = EXIT_OK
    if "routes_agree" in result:
        verdicts["degree_one_route"] = result["degree_one_route"]
        verdicts["routes_agree"] = result["routes_agree"]
        if not result["routes_agree"]:
            exit_code = EXIT_VERIFICATION
    table = {f"{v} degree {i}": iso
             for (v, i), iso in sorted(result["iso_table"].items())}
    return Report("weq", verdicts=verdicts, tables={"isomorphisms": table}), \
        exit_code


def cmd_demo(args):
    if args.what == "counterexample":
        return _demo_counterexample(args)
    return _demo_chain_complex(args)


def _demo_counterexample(args):
    ring = _parse_ring(args.ring)
    X, Y, phi = counter_morphism(ring)
    v3, v4 = COUNTER_LABELS[3], COUNTER_LABELS[4]
    ok_valid = (validate_representation(X).ok and validate_representation(Y).ok)
    mesh_iso = mesh_homology_map(phi, v3).is_isomorphism()
    K, _ = kernel_of_morphism(phi)
    kernel_mesh = mesh_homology(K, v4)
    weq = is_weak_equivalence(phi)["is_weak_equivalence"]
    expected = ok_valid and mesh_iso and not kernel_mesh.is_zero and not weq
    report = Report(
        "demo counterexample",
        verdicts={"ok": expected,
                  "mesh_homology_of_phi_at_3": "iso" if mesh_iso else "NOT iso",
                  "weak_equivalence": "NO" if not weq else "YES",
                  "kernel_mesh_homology_at_4": kernel_mesh.describe()},
    )
    return report, EXIT_OK if expected else EXIT_VERIFICATION


def _demo_chain_complex(args):
    if not 1 <= args.random <= MAX_RANDOM:
        raise SchemaError("--random", f"must be between 1 and {MAX_RANDOM}")
    ring = _parse_ring(args.ring)
    rng = random.Random(args.seed)
    C = build_category(REPETITIVE_AN, 2, (-10, 10), ring, _flag)
    matches = 0
    total = args.random
    first_mismatch = None
    for _ in range(total):
        complex_ = random_complex(ring, rng)
        rep = complex_to_rep(C, complex_)
        good = True
        for k in complex_.degrees():
            direct = complex_.homology(k).normal_form()
            # the mesh at degree k - 1 has degree k in its middle
            vertex = degree_vertex(k - 1)
            through = mesh_homology(rep, vertex).normal_form()
            if direct != through:
                good = False
                if first_mismatch is None:
                    first_mismatch = {"degree": k,
                                      "direct": complex_.homology(k).describe(),
                                      "bridge": mesh_homology(rep, vertex).describe()}
        if good:
            matches += 1
    ok = matches == total
    report = Report("demo chain-complex",
                    verdicts={"ok": ok, "matches": f"{matches}/{total}",
                              "seed": args.seed})
    if first_mismatch:
        report.witnesses["first_mismatch"] = first_mismatch
    return report, EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _add_category_flags(p):
    p.add_argument("--flavor", choices=["double_an", "repetitive_an"],
                   default="double_an")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, nargs=2, metavar=("IMIN", "IMAX"))
    p.add_argument("--ring", default="Z", help='"Z", "Q", or "mod:M"')


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args reads it
    and never changes it."""
    parser = _Parser(prog="qshape", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table"], default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    p = sub.add_parser("build", help="emit the category bundle")
    _add_category_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dims", help="hom-rank table against the closed formula")
    _add_category_flags(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("mult", help="closed multiplication matrices vs oracle")
    _add_category_flags(p)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("serre-check", help="verify the Serre functor identities")
    _add_category_flags(p)
    p.set_defaults(func=cmd_serre_check)

    p = sub.add_parser("oracle", help="closed graded dims vs degree-by-degree "
                                      "mesh quotients")
    _add_category_flags(p)
    p.add_argument("--max-len", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="check a representation file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="mesh and derived homology tables")
    p.add_argument("--input", required=True)
    p.add_argument("--vertex")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--side", choices=["both", "cn", "co"], default="both")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("classify", help="exact / projective / injective verdicts")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("weq", help="weak equivalence test for a morphism file")
    p.add_argument("--input", required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.set_defaults(func=cmd_weq)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=["counterexample", "chain-complex"])
    p.add_argument("--ring", default="Z")
    p.add_argument("--random", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except SchemaError as exc:
        print(dumps({"error": str(exc), "path": exc.path}))
        return EXIT_BAD_INPUT
    except (OSError, QShapeError) as exc:
        print(dumps({"error": str(exc)}))
        return EXIT_BAD_INPUT
    print(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
