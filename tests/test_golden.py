"""Golden outputs: the exit status and stdout of a fixed command set.

Each file under ``tests/golden/`` holds one group of commands.  A record
is the line ``$ hvlab <argv>``, the line ``exit <status>`` and the
command's stdout as printed.  A ``--scan`` command's stdout, some
300 KB of CSV, is kept as its sha256; every other command prints the
table format, whose ``%.10g`` cells absorb last-bit differences in a
value.  They do not absorb them in a value that is itself roundoff:
oracle-check's deviation rows, such as ``born-vs-trace`` (about 1e-15),
print the rounding error of the exact reference, so any change to the
eigensolver's arithmetic, or a host whose numpy rounds otherwise, moves
them.  The argv are read from the files, so the set that is checked
changes only when a file does.

- ``readme.txt``: the README's command-line examples as written;
- ``workloads.txt``: ``benchmarks.workloads.generate(w, s, samples=20000)``
  for ``mc-models``, ``battery`` and ``sign-sweep`` at s = 1, 2, 3;
- ``ci.txt``: the two 300,000-sample commands of CI's console-script
  step, a homogeneity split and an offset spin-one outcome table.

After a change meant to move a printed cell or an exit status, rewrite
every record from the argv in the files and commit the diff:

    PYTHONPATH=src python tests/test_golden.py

To add a command, append its ``$ hvlab ...`` line to a file and rewrite.
"""

import contextlib
import difflib
import hashlib
import io
import shlex
from pathlib import Path

import pytest

from hvlab.cli import main

GOLDEN = Path(__file__).with_name("golden")
GROUPS = ("readme", "workloads", "ci")


def _argvs(text: str) -> list[list[str]]:
    return [shlex.split(line[2:])[1:] for line in text.splitlines() if line.startswith("$ ")]


def _record(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    body = out.getvalue()
    if "--scan" in argv:
        body = f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n"
    return f"$ {shlex.join(['hvlab', *argv])}\nexit {code}\n{body}"


def _render(golden: str) -> str:
    """The records of the commands in ``golden``, run now."""
    return "".join(_record(argv) for argv in _argvs(golden))


@pytest.mark.parametrize("group", GROUPS)
def test_output_matches_golden(group):
    expected = (GOLDEN / f"{group}.txt").read_text()
    actual = _render(expected)
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(True), actual.splitlines(True), f"golden/{group}.txt", "now")
        pytest.fail("".join(diff), pytrace=False)


if __name__ == "__main__":
    for group in GROUPS:
        path = GOLDEN / f"{group}.txt"
        path.write_text(_render(path.read_text()))
