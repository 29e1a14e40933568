"""Golden output of ``qshape build``, ``dims``, ``oracle`` and ``serre-check``.

``tests/data/build_golden.json`` pins the category bundle (hom bases,
nilpotency index, left multiplication matrices and the Serre report) of
double A_2..A_5 and of repetitive A_2 and A_3 on the window (-3, 3), each
over Z and Z/9.  The bundles were recorded while each flavor still had its
own hom formula, so they check that the one hom rule reads both flavors
as before.  The same file pins the exit code and the exact stdout of
``dims``, ``oracle`` and ``serre-check`` on repetitive A_2 and A_3, on the
windows (-3, 3) and (0, 0), over Z and Z/9; those were recorded while
every scan still visited every vertex pair, so they check that the scans
over the Serre rectangle print what the pair scans printed.  Rebuild the
file with

    PYTHONPATH=src python tests/test_build_golden.py > tests/data/build_golden.json

only for a change that is meant to alter the output.
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
STDOUT_CASES = {f"{command} repetitive A_{n} ({lo}, {hi}) {ring}":
                [command, "--flavor", "repetitive_an", "--n", str(n),
                 "--window", lo, hi, "--ring", ring]
                for command in ("dims", "oracle", "serre-check")
                for n in (2, 3) for lo, hi in (("-3", "3"), ("0", "0"))
                for ring in ("Z", "mod:9")}


def run(argv) -> list:
    """[exit code, stdout] of one qshape call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def build(argv) -> dict:
    code, out = run(["build", *argv])
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_matches_the_golden_table(case):
    assert build(CASES[case]) == json.loads(GOLDEN.read_text())[case]


@pytest.mark.parametrize("case", sorted(STDOUT_CASES))
def test_stdout_matches_the_golden_text(case):
    assert run(STDOUT_CASES[case]) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    golden = {case: json.dumps(build(CASES[case]), sort_keys=True)
              for case in CASES}
    golden |= {case: json.dumps(run(STDOUT_CASES[case]))
               for case in STDOUT_CASES}
    lines = [f" {json.dumps(case)}: {golden[case]}" for case in sorted(golden)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
