"""Golden output of ``qshape build``.

``tests/data/build_golden.json`` pins the category bundle (hom bases,
nilpotency index, left multiplication matrices and the Serre report) of
double A_2..A_5 and of repetitive A_2 and A_3 on the window (-3, 3), each
over Z and Z/9.  The table was recorded while each flavor still had its
own hom formula, so it checks that the one hom rule reads both flavors
as before.  Rebuild it with

    PYTHONPATH=src python tests/test_build_golden.py > tests/data/build_golden.json

only for a change that is meant to alter the bundle.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qshape.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "build_golden.json"
CASES = {f"double A_{n} {ring}": ["--n", str(n), "--ring", ring]
         for n in (2, 3, 4, 5) for ring in ("Z", "mod:9")}
CASES |= {f"repetitive A_{n} (-3, 3) {ring}":
          ["--flavor", "repetitive_an", "--n", str(n), "--window", "-3", "3",
           "--ring", ring]
          for n in (2, 3) for ring in ("Z", "mod:9")}


def build(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", *argv]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_matches_the_golden_table(case):
    assert build(CASES[case]) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    lines = [f" {json.dumps(case)}: {json.dumps(build(CASES[case]), sort_keys=True)}"
             for case in sorted(CASES)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
