"""The three workloads: seeded job lists and the checks on their outputs.

A job is timed from the first call into qshape to its last.  Its output
is plain data (`answer`) plus, on the first round only, objects the
check needs (`evidence`).  The first round checks every answer against a
property the method must have or a computation made apart from it;
later rounds repeat the same jobs and must reproduce the first round's
answers exactly.

Jobs marked with `fault` exercise a named fault of the program and are
expected to fail until it is mended; any other failure makes the run
incorrect.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from qshape import MeshCategory, PresentedModule, QQ, ZZ, Zmod, build_double_an
from qshape import cli, homology
from qshape.exactalg import kernel_basis, solve_matrix
from qshape.homology import (SIDE_CN, SIDE_CO, corner_functors,
                             derived_homology, mesh_homology, resolve_stalk)
from qshape.io import parse_representation, representation_json
from qshape.quiver import format_vertex, parse_vertex
from qshape.repmod import cofree_at, free_at, random_representation, stalk_rep

ROOT = Path(__file__).resolve().parents[1]
RINGS = {"Z": ZZ, "Q": QQ, "F3": Zmod(3), "Z9": Zmod(9)}
CLI_RING = {"Z": "Z", "Q": "Q", "F3": "mod:3", "Z9": "mod:9"}

FAULT_MALFORMED = "malformed input ends in a traceback or exit 0 (ROADMAP item 5)"


@dataclass
class Job:
    name: str
    run: Callable[[], tuple]                 # -> (answer, evidence)
    check: Callable[[object, object], list]  # (answer, evidence) -> problems
    # each maps (answer, evidence) to a deliberately wrong pair
    corruptions: list = field(default_factory=list)
    fault: str | None = None


@dataclass
class Workload:
    jobs: list
    time_limit_s: float


def nf(module) -> tuple:
    f = module.normal_form()
    return f.free_rank, f.torsion


def ring_nf(R) -> tuple:
    return nf(PresentedModule.free(R, 1))


ZERO = (0, ())


def _bump(form) -> tuple:
    return form[0] + 1, form[1]


# ---------------------------------------------------------------------------
# resolve_cold
# ---------------------------------------------------------------------------

def _resolve_job(n, ring_name, q, side):
    R = RINGS[ring_name]
    p = math.ceil(n / 2)

    def run():
        C = MeshCategory(build_double_an(n), R)
        # through the module, so the traced run's wrapper sees the call
        res = homology.resolve_stalk(C, q, side, 4)
        X = cofree_at(C, p, PresentedModule.free(R, 1))
        H = derived_homology(X, q, side, 3)
        answer = (tuple(len(t) for t in res.terms),
                  tuple(nf(H[i]) for i in range(4)))
        return answer, (C, res, X)

    def check(answer, evidence):
        C, res, X = evidence
        levels, forms = answer
        problems = []
        if levels != tuple(len(t) for t in res.terms) or len(levels) != 5:
            problems.append(f"level sizes {levels} disagree with the resolution")
        for s in C.vertices:
            d1 = res.level_matrix(1, s)
            stalk = PresentedModule(R, d1.rows, d1)
            want = ring_nf(R) if s == q else ZERO
            if nf(stalk) != want:
                problems.append(f"coker d1 at {s} is {nf(stalk)}, want {want}")
            for i in range(1, res.length()):
                di, dn = res.level_matrix(i, s), res.level_matrix(i + 1, s)
                if not (di * dn).is_zero:
                    problems.append(f"d{i} d{i + 1} != 0 at {s}")
                elif solve_matrix(dn, kernel_basis(di)) is None:
                    problems.append(f"not exact at level {i}, vertex {s}")
        corner = corner_functors(X, q)
        if side == SIDE_CN:
            if forms[0] != nf(corner.C):
                problems.append(f"H_0 {forms[0]} != C_q {nf(corner.C)}")
        else:
            k_closed = ring_nf(R) if q == p else ZERO
            if forms[0] != nf(corner.K) or forms[0] != k_closed:
                problems.append(f"H^0 {forms[0]} != K_q {nf(corner.K)}")
        if forms[1] != nf(mesh_homology(X, q)):
            problems.append("H_1 differs from mesh homology")
        if any(f != ZERO for f in forms[1:]):
            problems.append(f"higher groups of a cofree object: {forms[1:]}")
        return problems

    def break_boundary(answer, evidence):
        # drop every entry of the top boundary: d4 = 0 cannot be exact at 3
        C, res, X = evidence
        res.boundaries[-1] = {}
        return answer, evidence

    corruptions = [
        lambda a, e: ((a[0], (_bump(a[1][0]),) + a[1][1:]), e),
        lambda a, e: ((a[0], a[1][:2] + (_bump(a[1][2]),) + a[1][3:]), e),
        lambda a, e: (((a[0][0] + 1,) + a[0][1:], a[1]), e),
        break_boundary,
    ]
    return Job(f"resolve A{n} {ring_name} q={q} {side}", run, check, corruptions)


# A_5 sides (middle vertex, end vertex) per ring, both sides in the mix
A5_SIDES = {"Z": (SIDE_CN, SIDE_CO), "Q": (SIDE_CO, SIDE_CN),
            "F3": (SIDE_CN, SIDE_CO), "Z9": (SIDE_CO, SIDE_CN)}


def resolve_cold(seed: int, small: bool = False) -> Workload:
    """Cold category + stalk resolution to length 4 + H_0..3 of a cofree.

    Double A_4 at every vertex on both sides, and double A_5 at the
    middle vertex (where Z/9 takes ~10x its neighbours) and at an end
    vertex, each on one side.  Every job builds its own category, so the
    seed, which orders the jobs, changes no job's cost.
    """
    rng = random.Random(f"resolve_cold:{seed}")
    specs = []
    rings = ("F3", "Z9") if small else tuple(RINGS)
    for ring_name in rings:
        for q in ((2,) if small else range(1, 5)):
            for side in (SIDE_CN, SIDE_CO):
                specs.append((4, ring_name, q, side))
        if not small:
            side, other = A5_SIDES[ring_name]
            specs += [(5, ring_name, 3, side), (5, ring_name, 5, other)]
    rng.shuffle(specs)
    return Workload([_resolve_job(*s) for s in specs], time_limit_s=30.0)


# ---------------------------------------------------------------------------
# homology_warm
# ---------------------------------------------------------------------------

def _warm_job(label, C, state, hereditary):
    def run():
        rng = random.Random()
        rng.setstate(state)
        X = random_representation(C, rng)
        rows = []
        for q in C.vertices:
            mesh = nf(mesh_homology(X, q))
            hcn = derived_homology(X, q, SIDE_CN, 3)
            hco = derived_homology(X, q, SIDE_CO, 3)
            corner = corner_functors(X, q)
            rows.append((mesh, tuple(nf(hcn[i]) for i in range(4)),
                         tuple(nf(hco[i]) for i in range(4)),
                         nf(corner.C), nf(corner.K)))
        return tuple(rows), None

    def check(answer, _evidence):
        problems = []
        for q, (mesh, hcn, hco, c, k) in enumerate(answer, start=1):
            if hcn[1] != mesh:
                problems.append(f"H_1 {hcn[1]} != mesh homology {mesh} at {q}")
            if hcn[0] != c:
                problems.append(f"H_0 {hcn[0]} != C_q {c} at {q}")
            if hco[0] != k:
                problems.append(f"H^0 {hco[0]} != K_q {k} at {q}")
        if hereditary:
            routes = (all(row[0] == ZERO for row in answer),
                      all(f == ZERO for row in answer for f in row[1][1:]),
                      all(f == ZERO for row in answer for f in row[2][1:]))
            if len(set(routes)) != 1:
                problems.append(f"exactness routes disagree: {routes}")
        return problems

    def set_row(answer, q, row):
        return answer[:q] + (row,) + answer[q + 1:]

    def bump_h1(a, e):
        mesh, hcn, hco, c, k = a[0]
        return set_row(a, 0, (mesh, (hcn[0], _bump(hcn[1])) + hcn[2:],
                              hco, c, k)), e

    def bump_c(a, e):
        mesh, hcn, hco, c, k = a[-1]
        return set_row(a, len(a) - 1, (mesh, hcn, hco, _bump(c), k)), e

    def bump_k(a, e):
        mesh, hcn, hco, c, k = a[0]
        return set_row(a, 0, (mesh, hcn, hco, c, _bump(k))), e

    def flip_route(a, e):
        # turn the H^i route alone: a nonzero H^2 on an exact object, or
        # vanishing H^1..3 everywhere on one that is not exact
        if all(row[0] == ZERO for row in a):
            mesh, hcn, hco, c, k = a[0]
            return set_row(a, 0, (mesh, hcn, hco[:2] + ((1, ()),) + hco[3:],
                                  c, k)), e
        return tuple((mesh, hcn, hco[:1] + (ZERO,) * 3, c, k)
                     for mesh, hcn, hco, c, k in a), e

    corruptions = [bump_h1, bump_c, bump_k]
    if hereditary:
        corruptions.append(flip_route)
    return Job(f"warm {label}", run, check, corruptions)


# Draws per (n, ring): the first k draws of random.Random("<ring> A<n>").
# The draws are fixed and the seed only orders the jobs: single draws of
# one (n, ring) differ in cost by up to 10x, and a seeded choice of draws
# moved throughput by 14% between seeds.  On A_4, Q keeps its first two
# draws of random.Random(4), because its single draws run from 0.2 s to
# 5 s, and Z/9 takes draws 0 and 2..7 of random.Random(9): draws 1 and 8
# there, like ~5% of all its draws, run for minutes in the Smith form.
DRAWS = {2: range(6), 3: range(8), 4: range(6)}
FIXED_DRAWS = {("Q", 4): (4, (0, 1)), ("Z9", 4): (9, (0, 2, 3, 4, 5, 6, 7))}


def warm_setup(small: bool):
    """Every stalk resolution of double A_2..A_4 over every ring, to length 4."""
    cats = {}
    for n in ((2, 3) if small else (2, 3, 4)):
        for ring_name, R in RINGS.items():
            C = MeshCategory(build_double_an(n), R)
            for q in C.vertices:
                for side in (SIDE_CN, SIDE_CO):
                    resolve_stalk(C, q, side, 4)
            cats[(ring_name, n)] = C
    return cats


def homology_warm(seed: int, small: bool = False) -> Workload:
    """Fixed random representations on categories whose resolutions are
    all cached; each job takes mesh homology, H_0..3, H^0..3 and both
    corner functors at every vertex.  The seed orders the jobs."""
    jobs = []
    for (ring_name, n), C in warm_setup(small).items():
        hereditary = RINGS[ring_name].is_hereditary
        seed_of_draws, wanted = FIXED_DRAWS.get((ring_name, n),
                                                (f"{ring_name} A{n}", DRAWS[n]))
        if small:
            wanted = (0,)
        draws = random.Random(seed_of_draws)
        for k in range(max(wanted) + 1):
            state = draws.getstate()
            random_representation(C, draws)
            if k in wanted:
                jobs.append(_warm_job(f"A{n} {ring_name} draw {k}", C, state,
                                      hereditary))
    random.Random(f"homology_warm:{seed}").shuffle(jobs)
    return Workload(jobs, time_limit_s=5.0)


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------

def call_cli(argv, stdin_text=None):
    """One in-process `qshape` call: (exit code, stdout)."""
    out = _io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = _io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_job(name, argv, check, stdin_text=None, evidence=None,
             corruptions=(), fault=None):
    def run():
        return call_cli(argv, stdin_text), evidence

    def checked(answer, ev):
        code, text = answer
        try:
            report = json.loads(text)
        except ValueError:
            return [f"exit {code}, stdout is not JSON: {text[:80]!r}"]
        if not isinstance(report, dict):
            return [f"exit {code}, stdout is not a JSON object"]
        return check(code, report, ev)

    return Job(name, run, checked, list(corruptions), fault)


def _verdict_flip(key):
    def flip(answer, evidence):
        code, text = answer
        report = json.loads(text)
        report["verdicts"][key] = not report["verdicts"][key]
        return (code, json.dumps(report)), evidence
    return flip


def _edit_report(edit):
    def corrupt(answer, evidence):
        code, text = answer
        report = json.loads(text)
        edit(report)
        return (code, json.dumps(report)), evidence
    return corrupt


def _exit_code(code):
    return lambda a, e: ((code, a[1]), e)


def _ok(code, report):
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if report.get("verdicts", {}).get("ok") is not True:
        problems.append(f"verdict ok is {report.get('verdicts', {}).get('ok')!r}")
    return problems


def _check_dims(n):
    def check(code, report, _):
        want = [[min(p, q, n + 1 - p, n + 1 - q) for q in range(1, n + 1)]
                for p in range(1, n + 1)]
        problems = _ok(code, report)
        if report["tables"].get("ranks") != want:
            problems.append("hom ranks differ from min(p, q, n+1-p, n+1-q)")
        return problems
    return check


def _check_mult(n):
    def check(code, report, _):
        problems = _ok(code, report)
        if len(report["tables"]) != 2 * n * (n - 1):
            problems.append(f"{len(report['tables'])} tables for n = {n}")
        return problems
    return check


def _check_serre(n):
    def check(code, report, _):
        problems = _ok(code, report)
        want = {str(q): str(n + 1 - q) for q in range(1, n + 1)}
        if report["tables"].get("object_map") != want:
            problems.append("Serre functor is not q -> n+1-q on objects")
        if not all(v is True for v in report["verdicts"].values()):
            problems.append(f"Serre verdicts {report['verdicts']}")
        return problems
    return check


def _check_oracle(n):
    def check(code, report, _):
        problems = _ok(code, report)
        if report["verdicts"].get("max_len") != 2 * n:
            problems.append("oracle path length is not 2n")
        return problems
    return check


def _check_build(n, window):
    def check(code, report, _):
        problems = _ok(code, report)
        bundle = report["tables"].get("bundle", {})
        if len(bundle.get("vertices", ())) != n * (window[1] - window[0] + 1):
            problems.append("vertex count of the repetitive window")
        if bundle.get("nilpotency_index") != n:
            problems.append("nilpotency index of repetitive A_n is not n")
        return problems
    return check


def _check_weq(code, report, _):
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if report["verdicts"].get("is_weak_equivalence") is not False:
        problems.append("the paper's counterexample is not a weak equivalence")
    broken = [k for k, iso in report["tables"].get("isomorphisms", {}).items()
              if iso is False]
    # the kernel's mesh homology sits at vertex 4 = 1@-1, degree 2
    if "1@-1 degree 2" not in broken:
        problems.append(f"non-isomorphisms at {broken}, want 1@-1 degree 2")
    return problems


def _check_counterexample(code, report, _):
    problems = _ok(code, report)
    v = report["verdicts"]
    if v.get("weak_equivalence") != "NO" or \
            v.get("mesh_homology_of_phi_at_3") != "iso":
        problems.append(f"counterexample verdicts {v}")
    return problems


def _check_chain(count):
    def check(code, report, _):
        problems = _ok(code, report)
        if report["verdicts"].get("matches") != f"{count}/{count}":
            problems.append("bridge homology differs from chain homology")
        return problems
    return check


def _representation_facts(X, vertex):
    """What the checks compare CLI output with, computed in-library apart
    from the CLI: corner functors and mesh homology at the probe vertex."""
    corner = corner_functors(X, vertex)
    return {"C": corner.C.describe(), "K": corner.K.describe(),
            "mesh": mesh_homology(X, vertex).describe() if X.category.is_interior(vertex)
            else None,
            "nonzero": not X.is_zero()}


def _check_validate(code, report, _):
    problems = []
    if code != 0 or report.get("verdicts", {}).get("ok") is not True:
        problems.append(f"a mesh-valid representation fails validation (exit {code})")
    return problems


def _check_classify(kind, ring_name):
    def check(code, report, facts):
        problems = []
        if code != 0:
            return [f"exit {code}"]
        v = report["verdicts"]
        if v.get("is_zero") is not (not facts["nonzero"]):
            problems.append(f"is_zero {v.get('is_zero')}")
        if kind == "free" and v.get("is_projective") is not True:
            problems.append("a free object is not projective")
        if kind == "cofree" and v.get("is_injective") is not (ring_name != "Z"):
            problems.append(f"cofree over {ring_name}: injective {v.get('is_injective')}")
        if kind == "stalk" and (v.get("is_projective") is not False
                                or v.get("is_injective") is not False):
            problems.append("a stalk is projective or injective")
        if kind == "mesh" and facts["mesh"] != "0" and v.get("is_exact") is not False:
            problems.append("exact although mesh homology does not vanish")
        return problems
    return check


def _check_homology(kind, label):
    def check(code, report, facts):
        if code != 0:
            return [f"exit {code}"]
        t = report["tables"]
        problems = []
        h_, h_up = t.get("H_", {}), t.get("H^", {})
        if h_.get(f"0 at {label}") != facts["C"]:
            problems.append(f"H_0 {h_.get(f'0 at {label}')} != C_q {facts['C']}")
        if h_up.get(f"0 at {label}") != facts["K"]:
            problems.append(f"H^0 {h_up.get(f'0 at {label}')} != K_q {facts['K']}")
        if facts["mesh"] is not None and (
                t.get("mesh", {}).get(label) != facts["mesh"]
                or h_.get(f"1 at {label}") != facts["mesh"]):
            problems.append("H_1 or the mesh table differs from mesh homology")
        degrees = [k for k in h_ if not k.startswith("0 ")]
        if kind == "free" and any(h_[k] != "0" for k in degrees):
            problems.append("a free object has higher H_i")
        if kind == "cofree" and any(h_up[k] != "0" for k in h_up
                                    if not k.startswith("0 ")):
            problems.append("a cofree object has higher H^i")
        if kind == "free" and h_.get(f"0 at {label}") != facts["closed_C"]:
            problems.append("H_0 of a free object is not R at its vertex only")
        if kind == "cofree" and h_up.get(f"0 at {label}") != facts["closed_K"]:
            problems.append("H^0 of a cofree object is not R at its vertex only")
        return problems
    return check


def _bad_exit(code, report, _):
    problems = []
    if code != 1:
        problems.append(f"exit {code}, want 1")
    if not {"error", "path"} <= set(report):
        problems.append("no JSON path in the error")
    return problems


MALFORMED = {
    "entry abc over Z": ("Z", {"rank": 1, "relations": {
        "rows": 1, "cols": 1, "entries": ["abc"]}}),
    "entry 1/0 over Q": ("Q", {"rank": 1, "relations": {
        "rows": 1, "cols": 1, "entries": ["1/0"]}}),
    "rows as a string": ("Z", {"rank": 1, "relations": {
        "rows": "1", "cols": 1, "entries": ["2"]}}),
    "modulus as a string": ({"mod": "9"}, {"rank": 1}),
    "rank true": ("Z", {"rank": True}),
}


def _malformed_text(ring, value) -> str:
    return json.dumps({"category": {"flavor": "double_an", "n": 2, "ring": ring},
                       "values": {"1": value}})


def cli_requests(seed: int, small: bool = False) -> Workload:
    """A user's session of `qshape` calls, each parsing its input and
    building a cold category.  The seed picks the vertices of the
    generated representations, the probe vertices and the chain-complex
    draws; the fixed calls and the malformed inputs do not depend on it."""
    rng = random.Random(f"cli_requests:{seed}")
    counter = str(ROOT / "fixtures" / "counter.json")
    counter_x = str(ROOT / "fixtures" / "counter_X.json")
    jobs = [_cli_job("weq counter", ["weq", "--input", counter], _check_weq,
                     corruptions=[_verdict_flip("is_weak_equivalence")])]

    X = parse_representation(json.loads(Path(counter_x).read_text()))
    probe = "2@0"
    facts = _representation_facts(X, parse_vertex(probe))
    for cmd, check in (("classify", _check_classify("mesh", "Q")),
                       ("validate", _check_validate),
                       ("homology", _check_homology("mesh", probe))):
        argv = [cmd, "--input", counter_x] + \
            (["--vertex", probe] if cmd == "homology" else [])
        jobs.append(_cli_job(f"{cmd} counter_X", argv, check, evidence=facts,
                             corruptions=_corruptions_for(cmd)))

    for ring_name in (("F3",) if small else tuple(RINGS)):
        R = RINGS[ring_name]
        C = MeshCategory(build_double_an(3), R)
        one = PresentedModule.free(R, 1)
        for kind, make in (("free", free_at), ("cofree", cofree_at),
                           ("stalk", stalk_rep)):
            p, v = rng.randint(1, 3), rng.randint(1, 3)
            Y = make(C, p, one)
            text = json.dumps(representation_json(Y), sort_keys=True)
            facts = _representation_facts(Y, v)
            at_p = ring_description(R)
            facts["closed_C"] = facts["closed_K"] = at_p if v == p else "0"
            label = format_vertex(v)
            for cmd, check in (("classify", _check_classify(kind, ring_name)),
                               ("validate", _check_validate),
                               ("homology", _check_homology(kind, label))):
                argv = [cmd, "--input", "-"] + \
                    (["--vertex", label] if cmd == "homology" else [])
                jobs.append(_cli_job(f"{cmd} {kind} {ring_name} p={p} v={v}",
                                     argv, check, stdin_text=text,
                                     evidence=facts,
                                     corruptions=_corruptions_for(cmd)))

    for n in ((5,) if small else (5, 6)):
        jobs += [
            _cli_job(f"dims n={n}", ["dims", "--n", str(n)], _check_dims(n),
                     corruptions=[_edit_report(
                         lambda r: r["tables"]["ranks"][0].__setitem__(0, 2))]),
            _cli_job(f"mult n={n}", ["mult", "--n", str(n)], _check_mult(n),
                     corruptions=[_verdict_flip("ok")]),
            _cli_job(f"serre-check n={n}", ["serre-check", "--n", str(n)],
                     _check_serre(n),
                     corruptions=[_edit_report(
                         lambda r: r["tables"]["object_map"].__setitem__("1", "1"))]),
            _cli_job(f"oracle n={n}", ["oracle", "--n", str(n)], _check_oracle(n),
                     corruptions=[_verdict_flip("ok")]),
        ]
    window = (-4, 4)
    jobs.append(_cli_job("build repetitive", [
        "build", "--flavor", "repetitive_an", "--n", "2", "--window",
        str(window[0]), str(window[1])], _check_build(2, window),
        corruptions=[_edit_report(
            lambda r: r["tables"]["bundle"]["vertices"].pop())]))
    jobs.append(_cli_job("demo counterexample", ["demo", "counterexample"],
                         _check_counterexample,
                         corruptions=[_edit_report(
                             lambda r: r["verdicts"].__setitem__(
                                 "weak_equivalence", "YES"))]))
    for ring_name in (("F3",) if small else ("Z", "F3")):
        count = 10
        chain_seed = rng.randrange(10 ** 6)
        jobs.append(_cli_job(
            f"demo chain-complex {ring_name}",
            ["demo", "chain-complex", "--random", str(count), "--ring",
             CLI_RING[ring_name], "--seed", str(chain_seed)],
            _check_chain(count),
            corruptions=[_edit_report(
                lambda r: r["verdicts"].__setitem__("matches", "9/10"))]))

    for name, (ring, value) in MALFORMED.items():
        jobs.append(_cli_job(f"malformed: {name}", ["validate", "--input", "-"],
                             _bad_exit, stdin_text=_malformed_text(ring, value),
                             corruptions=[_exit_code(0)], fault=FAULT_MALFORMED))
    rng.shuffle(jobs)
    return Workload(jobs, time_limit_s=30.0)


def ring_description(R) -> str:
    return PresentedModule.free(R, 1).describe()


def _corruptions_for(cmd):
    if cmd == "classify":
        return [_verdict_flip("is_zero")]
    if cmd == "validate":
        return [_verdict_flip("ok")]
    return [_edit_report(lambda r: r["tables"]["H_"].update(
        {k: "Z/2" for k in r["tables"]["H_"]}))]


WORKLOADS = {"resolve_cold": resolve_cold, "homology_warm": homology_warm,
             "cli_requests": cli_requests}
