"""Per-layer tracing of qshape from outside the package.

`Tracer.install()` replaces the public functions and methods at each
layer boundary with wrappers; `uninstall()` puts the originals back, so
an untraced round runs the unmodified program.  A function is replaced
under every name a qshape module holds it by (`from .x import f` copies
the reference), so the wrappers see calls made from inside the package.

Wrapped functions record spans (name, start, end, parent) in memory.
Hot methods (Matrix construction and product, the multiplication-matrix
caches, normal forms) only update counters, because a span each would
cost more than the work it measures.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

RING_SUFFIXES = ("Z", "Q", "Fp", "Zpk")
ELIM_OPS = {"smith": ("Z", "Zpk"), "kernel": RING_SUFFIXES,
            "solve": RING_SUFFIXES, "rank": ("Q", "Fp")}
SELF_LAYERS = ("elim", "modules", "repmod", "homology")

# Every metric the traced run reports, with its unit.  Layers that only
# cli_requests enters (oracle, Serre check, validation, decisions, io)
# are reported as call counts: their times would read 0 on every run of
# the other workloads.
PER_LAYER_UNITS = {}
for _op, _rings in ELIM_OPS.items():
    for _r in _rings:
        PER_LAYER_UNITS[f"elim.{_op}.calls.{_r}"] = "count"
        PER_LAYER_UNITS[f"elim.{_op}.s.{_r}"] = "s"
PER_LAYER_UNITS.update({
    "elim.max_call_ms": "ms",
    "elim.max_bits.Z": "bits",
    "matrix.built": "count",
    "matrix.entries": "count",
    "matrix.mul.calls": "count",
    "matrix.mul.s": "s",
    "modules.middle_homology.calls": "count",
    "modules.middle_homology.s": "s",
    "modules.kernel.calls": "count",
    "modules.kernel.s": "s",
    "modules.coordinates.calls": "count",
    "modules.coordinates.s": "s",
    "modules.normal_form.calls": "count",
    "modules.normal_form.hit_ratio": "ratio",
    "meshcat.mult.calls": "count",
    "meshcat.mult.hit_ratio": "ratio",
    "meshcat.oracle.calls": "count",
    "meshcat.serre.calls": "count",
    "repmod.validate.calls": "count",
    "repmod.evaluate.calls": "count",
    "repmod.evaluate.s": "s",
    "homology.resolve.calls": "count",
    "homology.resolve.s": "s",
    "homology.resolve.hit_ratio": "ratio",
    "homology.resolve.summands": "count",
    "homology.resolve.solves_per_summand": "ratio",
    "homology.derived.calls": "count",
    "homology.derived.s": "s",
    "homology.assembly.self_s": "s",
    "homology.mesh.calls": "count",
    "homology.decide.calls": "count",
    "homology.weq.derived_per_probe": "ratio",
    "io.parse.calls": "count",
    "io.dumps.calls": "count",
})
for _layer in SELF_LAYERS:
    PER_LAYER_UNITS[f"layer.{_layer}.self_s"] = "s"
PER_LAYER_UNITS["trace.overhead_s"] = "s"


def ring_suffix(ring) -> str:
    if ring.kind == "Z":
        return "Z"
    if ring.kind == "Q":
        return "Q"
    return "Fp" if ring.exponent == 1 else "Zpk"


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Spans and counters for one process; install() before, uninstall() after."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent span or None, child time]
        self.stack = []
        self.counts = Counter()
        self.times = Counter()
        self.max_bits = 0
        self._patches = []   # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _span(self, name_of, f):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name_of(args), perf_counter(), 0.0,
                   stack[-1] if stack else None, 0.0]
            stack.append(rec)
            try:
                result = f(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if rec[3] is not None:
                    rec[3][4] += end - rec[1]
                tracer.spans.append(rec)
            return result
        wrapper.__wrapped__ = f
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, f, wrapper):
        """Replace f under every name any qshape module holds it by."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qshape" or name.startswith("qshape.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is f:
                    self._patch(mod, attr, wrapper)

    def install(self):
        from qshape import cli, homology, io, repmod
        from qshape.exactalg import matrix, modules, smith
        from qshape.meshcat import MeshCategory

        Matrix = matrix.Matrix
        PresentedModule = modules.PresentedModule
        counts, times = self.counts, self.times
        tracer = self

        def by_ring(op):
            return lambda args: f"elim.{op}.{ring_suffix(args[0].ring)}"

        def counting_solve(f):
            def solve(*args, **kwargs):
                if counts["resolve.depth"]:
                    counts["homology.resolve.solves"] += 1
                return f(*args, **kwargs)
            return solve

        for f, op in ((smith.smith_normal_form, "smith"),
                      (smith.kernel_basis, "kernel"),
                      (smith.field_rank, "rank"),
                      (smith.matrix_is_invertible, "rank")):
            self._patch_function(f, self._span(by_ring(op), f))
        for f in (smith.solve, smith.solve_matrix):
            self._patch_function(f, self._span(by_ring("solve"),
                                               counting_solve(f)))

        plain_snf = smith._snf_int

        def snf_int(entries, rows, cols):
            S, U, V = plain_snf(entries, rows, cols)
            tracer.max_bits = max(tracer.max_bits, _max_bits(U), _max_bits(V))
            return S, U, V
        self._patch(smith, "_snf_int", snf_int)

        init = Matrix.__init__

        def matrix_init(self_, ring, rows, cols, entries):
            init(self_, ring, rows, cols, entries)
            counts["matrix.built"] += 1
            counts["matrix.entries"] += rows * cols
        self._patch(Matrix, "__init__", matrix_init)

        mul = Matrix.__mul__

        def matrix_mul(self_, other):
            t0 = perf_counter()
            result = mul(self_, other)
            times["matrix.mul"] += perf_counter() - t0
            counts["matrix.mul.calls"] += 1
            return result
        self._patch(Matrix, "__mul__", matrix_mul)

        normal_form = PresentedModule.normal_form

        def module_normal_form(self_):
            counts["modules.normal_form.calls"] += 1
            if self_._normal_form is not None:
                counts["modules.normal_form.hits"] += 1
            return normal_form(self_)
        self._patch(PresentedModule, "normal_form", module_normal_form)

        for attr, cache, tag in (("left_mult_matrix", "_left_mult_cache", "L"),
                                 ("right_mult_matrix", "_right_mult_cache", "R")):
            self._patch(MeshCategory, attr,
                        self._mult_counter(getattr(MeshCategory, attr), cache, tag))

        fixed = lambda name: (lambda args: name)  # noqa: E731
        self._patch_function(modules.middle_homology,
                             self._span(fixed("modules.middle_homology"),
                                        modules.middle_homology))
        self._patch_function(modules.coordinates_mod,
                             self._span(fixed("modules.coordinates"),
                                        modules.coordinates_mod))
        self._patch(modules.ModuleMap, "kernel",
                    self._span(fixed("modules.kernel"), modules.ModuleMap.kernel))
        self._patch(MeshCategory, "hom_basis_oracle",
                    self._span(fixed("meshcat.oracle"), MeshCategory.hom_basis_oracle))
        self._patch(MeshCategory, "serre_report",
                    self._span(fixed("meshcat.serre"), MeshCategory.serre_report))
        for f in (repmod.validate_representation, repmod.validate_morphism):
            self._patch_function(f, self._span(fixed("repmod.validate"), f))
        self._patch(repmod.Representation, "evaluate_matrix",
                    self._span(fixed("repmod.evaluate"),
                               repmod.Representation.evaluate_matrix))

        resolve = homology.resolve_stalk

        def resolve_stalk(C, q, side, length):
            cached = C._resolution_cache.get((q, side))
            hit = cached is not None and cached.length() >= length
            counts["homology.resolve.hits"] += hit
            counts["resolve.depth"] += 1
            try:
                res = resolve(C, q, side, length)
            finally:
                counts["resolve.depth"] -= 1
            if not hit:
                counts["homology.resolve.summands"] += sum(map(len, res.terms))
            return res
        self._patch_function(resolve, self._span(fixed("homology.resolve"),
                                                 resolve_stalk))

        derived = homology.derived_homology_data

        def derived_data(*args, **kwargs):
            if counts["weq.depth"]:
                counts["weq.derived"] += 1
            return derived(*args, **kwargs)
        self._patch_function(derived, self._span(fixed("homology.derived"),
                                                 derived_data))
        self._patch_function(homology.mesh_homology_data,
                             self._span(fixed("homology.mesh"),
                                        homology.mesh_homology_data))
        for f in (homology.classify_object, homology.zero_test):
            self._patch_function(f, self._span(fixed("homology.decide"), f))

        weq = homology.is_weak_equivalence

        def is_weak_equivalence(*args, **kwargs):
            counts["weq.depth"] += 1
            try:
                return weq(*args, **kwargs)
            finally:
                counts["weq.depth"] -= 1
        self._patch_function(weq, self._span(fixed("homology.decide"),
                                             is_weak_equivalence))

        probes = homology._cn_probes

        def cn_probes(*args, **kwargs):
            result = probes(*args, **kwargs)
            if counts["weq.depth"]:
                counts["weq.probes"] += len(result)
            return result
        self._patch(homology, "_cn_probes", cn_probes)

        for f in (io.parse_representation, io.parse_morphism):
            self._patch_function(f, self._span(fixed("io.parse"), f))
        self._patch_function(io.dumps, self._span(fixed("io.dumps"), io.dumps))
        self._patch(cli, "main", self._span(fixed("cli.main"), cli.main))

    def _mult_counter(self, f, cache_attr, tag):
        counts = self.counts

        def wrapper(self_, coeff, g, p):
            counts["meshcat.mult.calls"] += 1
            if (tag, coeff, g, p) in getattr(self_, cache_attr):
                counts["meshcat.mult.hits"] += 1
            return f(self_, coeff, g, p)
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-job bookkeeping ----------------------------------------------------

    def mark(self):
        """State to roll back to if the job about to start is abandoned."""
        return len(self.spans), Counter(self.counts), Counter(self.times), \
            self.max_bits

    def rollback(self, mark):
        """Drop what an abandoned job recorded: its counts depend on when
        the time limit struck, so keeping them would make counts unrepeatable."""
        n, counts, times, bits = mark
        del self.spans[n:]
        self.stack.clear()
        self.counts.clear()
        self.counts.update(counts)
        self.times.clear()
        self.times.update(times)
        self.max_bits = bits

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.times.clear()
        self.max_bits = 0

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics for everything recorded since the last reset."""
        calls, total = Counter(), Counter()
        self_time = Counter()
        max_elim = 0.0
        derived_self = 0.0
        for name, start, end, parent, child in self.spans:
            dur = end - start
            calls[name] += 1
            # time of a span nested in a span of the same name is already
            # inside its ancestor's total
            if parent is None or parent[0] != name:
                total[name] += dur
            self_time[name.split(".", 1)[0]] += dur - child
            if name.startswith("elim."):
                max_elim = max(max_elim, dur)
            elif name == "homology.derived":
                derived_self += dur - child
        out = {}
        for op, rings in ELIM_OPS.items():
            for r in rings:
                out[f"elim.{op}.calls.{r}"] = calls[f"elim.{op}.{r}"]
                out[f"elim.{op}.s.{r}"] = total[f"elim.{op}.{r}"]
        c = self.counts
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        out.update({
            "elim.max_call_ms": max_elim * 1000.0,
            "elim.max_bits.Z": self.max_bits,
            "matrix.built": c["matrix.built"],
            "matrix.entries": c["matrix.entries"],
            "matrix.mul.calls": c["matrix.mul.calls"],
            "matrix.mul.s": self.times["matrix.mul"],
            "modules.normal_form.calls": c["modules.normal_form.calls"],
            "modules.normal_form.hit_ratio": ratio(c["modules.normal_form.hits"],
                                                   c["modules.normal_form.calls"]),
            "meshcat.mult.calls": c["meshcat.mult.calls"],
            "meshcat.mult.hit_ratio": ratio(c["meshcat.mult.hits"],
                                            c["meshcat.mult.calls"]),
            "meshcat.oracle.calls": calls["meshcat.oracle"],
            "meshcat.serre.calls": calls["meshcat.serre"],
            "repmod.validate.calls": calls["repmod.validate"],
            "homology.resolve.hit_ratio": ratio(c["homology.resolve.hits"],
                                                calls["homology.resolve"]),
            "homology.resolve.summands": c["homology.resolve.summands"],
            "homology.resolve.solves_per_summand": ratio(
                c["homology.resolve.solves"], c["homology.resolve.summands"]),
            "homology.assembly.self_s": derived_self,
            "homology.mesh.calls": calls["homology.mesh"],
            "homology.decide.calls": calls["homology.decide"],
            "homology.weq.derived_per_probe": ratio(c["weq.derived"],
                                                    2 * c["weq.probes"]),
            "io.parse.calls": calls["io.parse"],
            "io.dumps.calls": calls["io.dumps"],
        })
        for name in ("modules.middle_homology", "modules.kernel",
                     "modules.coordinates", "repmod.evaluate",
                     "homology.resolve", "homology.derived"):
            out[f"{name}.calls"] = calls[name]
            if f"{name}.s" in PER_LAYER_UNITS:
                out[f"{name}.s"] = total[name]
        for layer in SELF_LAYERS:
            out[f"layer.{layer}.self_s"] = self_time[layer]
        return out

    def span_records(self):
        """Spans as [name, start, end, parent index] with times in seconds."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        return [[name, start - t0, end - t0,
                 -1 if parent is None else index.get(id(parent), -1)]
                for name, start, end, parent, _ in self.spans]


def median_summary(summaries) -> dict:
    """Per-metric median over the traced rounds (counts repeat exactly)."""
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
