"""Schema fuzz test of the CLI input boundary.

Derandomized hypothesis runs feed ``validate --input -`` near-valid and
malformed representation documents (ranks and matrix sizes at most 3),
documents with ranks and matrix shapes at and past ``io.MAX_RANK``,
``homology --vertex`` arbitrary strings on ``fixtures/counter_X.json``,
and ``dims``/``build`` small ``--flavor``, ``--n`` and ``--window`` flags.
Whatever the input, the exit code is 0, 1 or 2, stdout is one JSON
object, and exit 1 carries an error and the JSON path it points at.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qshape.cli import main  # noqa: E402
from qshape.io import MAX_RANK as CAP, parse_category  # noqa: E402
from qshape.quiver import format_vertex  # noqa: E402

COUNTER_X = Path(__file__).resolve().parents[1] / "fixtures" / "counter_X.json"
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

MAX_RANK = 3

json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=4))
json_any = st.recursive(
    json_leaf, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)

entry = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(str),
                  st.sampled_from(["1/2", "-3/4", "1/0", "x", "", "2.5"]),
                  json_leaf)
# mostly categories that parse, so that most documents reach the values,
# the arrows and the mesh check
good_category = st.sampled_from([
    {"flavor": "double_an", "n": 2, "ring": "Z"},
    {"flavor": "double_an", "n": 3, "ring": "Q"},
    {"flavor": "double_an", "n": 3, "ring": {"mod": 9}},
    {"flavor": "repetitive_an", "n": 2, "window": [-1, 1], "ring": "Z"},
    {"flavor": "repetitive_an", "n": 3, "window": [0, 1], "ring": {"mod": 5}}])
category = st.one_of(
    good_category, good_category, good_category,
    st.fixed_dictionaries(
        {"flavor": st.sampled_from(["double_an", "repetitive_an", "x"]),
         "n": st.one_of(st.integers(0, 4), json_leaf)},
        optional={"ring": st.one_of(st.sampled_from(["Z", "Q", "R", {"mod": 6},
                                                     {"mod": 1}]), json_any),
                  "window": st.one_of(st.lists(st.integers(-2, 2), max_size=3),
                                      json_any)}),
    json_any)


@st.composite
def matrix(draw):
    rows, cols = draw(st.integers(0, MAX_RANK)), draw(st.integers(0, MAX_RANK))
    size = rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1]))
    data = {"rows": rows, "cols": cols,
            "entries": draw(st.lists(entry, min_size=max(size, 0),
                                     max_size=max(size, 0)))}
    return draw(st.one_of(st.just(data), st.just(data), json_any))


vertex_key = st.one_of(st.sampled_from(["0", "4", "x", "1@", "@", "1@9", "1@0"]),
                       st.text(max_size=3))
arrow_key = st.one_of(st.sampled_from(["a3", "a1@5", "b", "a1", "a1*@1"]),
                      st.text(max_size=3))
value = st.one_of(
    st.fixed_dictionaries({"rank": st.integers(0, MAX_RANK)},
                          optional={"relations": matrix()}),
    json_any)


@st.composite
def representation(draw):
    """A document of the right shape on a category that parses: ranks on
    some vertices and integer matrices of the right size on some arrows,
    so that the mesh check runs (exit 0 or 2)."""
    spec = draw(good_category)
    quiver = parse_category(spec).quiver
    ranks = draw(st.dictionaries(st.sampled_from(quiver.vertices),
                                 st.integers(0, MAX_RANK), max_size=4))
    arrows = {}
    for a in draw(st.lists(st.sampled_from(quiver.arrows), max_size=3,
                           unique=True)):
        rows, cols = ranks.get(a.target, 0), ranks.get(a.source, 0)
        arrows[a.name] = {"rows": rows, "cols": cols, "entries": draw(
            st.lists(st.integers(-3, 3).map(str), min_size=rows * cols,
                     max_size=rows * cols))}
    return {"category": spec,
            "values": {format_vertex(v): {"rank": r} for v, r in ranks.items()},
            "arrows": arrows}


@st.composite
def corrupted(draw):
    """A representation document with one field replaced or added."""
    doc = draw(representation())
    spots = [(doc, k) for k in ("category", "values", "arrows")]
    for key in ("values", "arrows"):
        spots += [(doc[key], k) for k in doc[key]]
        spots += [(doc[key][k], f) for k in doc[key] for f in doc[key][k]]
    spots += [(doc["values"], draw(vertex_key)), (doc["arrows"], draw(arrow_key))]
    owner, key = draw(st.sampled_from(spots))
    owner[key] = draw(st.one_of(json_any, matrix(), value, entry,
                                st.lists(entry, max_size=4)))
    return doc


document = st.one_of(
    representation(), corrupted(), corrupted(),
    st.fixed_dictionaries({"category": category},
                          optional={"values": json_any, "arrows": json_any}),
    json_any)


def run_cli(argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def check_contract(code, out):
    assert code in (0, 1, 2)
    report = json.loads(out)
    assert isinstance(report, dict)
    if code == 1:
        assert {"error", "path"} <= report.keys(), report


@FUZZ
@given(document)
def test_validate_documents(doc):
    check_contract(*run_cli(["validate", "--input", "-"], json.dumps(doc)))


@FUZZ
@given(st.text(max_size=12))
def test_validate_raw_text(text):
    check_contract(*run_cli(["validate", "--input", "-"], text))


@FUZZ
@given(st.one_of(st.from_regex(r"-?[0-9]{1,2}(@-?[0-9]{1,2}){0,2}", fullmatch=True),
                 st.text(max_size=8)))
def test_homology_vertex_strings(text):
    check_contract(*run_cli(["homology", "--input", str(COUNTER_X),
                             f"--vertex={text}"]))


@settings(FUZZ, max_examples=60)
@given(st.sampled_from([0, 1, CAP, CAP + 1, 10_000]),
       st.sampled_from([None, 0, 1, CAP, CAP + 1]),
       st.sampled_from([None, (1, 1), (1, CAP + 1), (CAP + 1, 0)]),
       st.sampled_from(["Z", {"mod": 9}]))
def test_ranks_and_shapes_at_the_cap(rank, relation_cols, arrow_shape, ring):
    # a rank past the cap, or a relation or arrow matrix past it, is refused
    # at its path before any elimination; up to the cap the document runs
    rows = min(rank, CAP + 1)  # a relation matrix has one row per generator
    zero = "0" if ring == "Z" else 0
    value = {"rank": rank}
    if relation_cols is not None:
        value["relations"] = {"rows": rows, "cols": relation_cols,
                              "entries": [zero] * (rows * relation_cols)}
    doc = {"category": {"flavor": "double_an", "n": 2, "ring": ring},
           "values": {"1": value}}
    if arrow_shape is not None:
        r, c = arrow_shape
        doc["arrows"] = {"a1*": {"rows": r, "cols": c, "entries": [zero] * (r * c)}}
    start = time.perf_counter()
    code, out = run_cli(["validate", "--input", "-"], json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    check_contract(code, out)
    report = json.loads(out)
    if rank > CAP:
        assert code == 1 and report["path"] == "/values/1/rank"
    elif relation_cols is not None and max(rows, relation_cols) > CAP:
        assert code == 1 and report["path"] == "/values/1/relations"
    elif arrow_shape is not None:  # a1*: 2 -> 1, so rank rows and 0 cols
        assert code == 1 and report["path"] == "/arrows/a1*"
        assert report["error"].endswith(
            f"at most {CAP}" if max(arrow_shape) > CAP
            else f"expected a {rank}x0 matrix")
    else:
        assert code == 0


@settings(FUZZ, max_examples=80)
@given(st.sampled_from(["dims", "build"]),
       st.sampled_from(["double_an", "repetitive_an"]),
       st.one_of(st.integers(-3, 6), st.sampled_from([33, 1000])),
       st.one_of(st.none(), st.tuples(st.integers(-10, 10), st.integers(-10, 10))))
def test_category_flags(command, flavor, n, window):
    # the default window (-2n, 2n) is wider than 20 columns from n = 6 on
    assume(window is not None or n <= 5)
    argv = [command, "--flavor", flavor, "--n", str(n)]
    if window is not None:
        argv += ["--window", *map(str, window)]
    check_contract(*run_cli(argv))
