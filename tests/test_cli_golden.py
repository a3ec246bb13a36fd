"""Golden transcript of the template and table verbs.

Runs a fixed list of main() invocations in process and compares their
concatenated stdout byte-for-byte with tests/golden/cli_transcript.txt.
After an intended change of output, rewrite the transcript with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib
import shlex

from qu2.cli import main

TRANSCRIPT = pathlib.Path(__file__).parent / "golden" / "cli_transcript.txt"

_PLAIN = [
    ["templates", "--level", "2"],
    ["templates", "--level", "3"],
    ["construct", "--level", "2", "--template", "U+", "--perm", "(1 2)"],
    ["construct", "--level", "3", "--template", "M1:0", "--sigma1", "(1 2)"],
    ["construct", "--level", "3", "--template", "AD*:(1 2)"],
    ["enumerate", "--level", "2", "--all-templates"],
    ["enumerate", "--level", "3", "--mode", "constructive", "--template", "U+"],
    ["enumerate", "--level", "3", "--mode", "constructive", "--template", "M2:1"],
    ["enumerate", "--level", "3", "--mode", "constructive",
     "--template", "AD:(1 3)"],
    ["enumerate", "--level", "3", "--mode", "constructive",
     "--template", "P[1] U^4 + P[2] U^-4"],
    ["check-ext", "(1 3)(2 4)", "--level", "2", "--template", "AD*:id"],
    ["check-ext", "(1 3 4)", "--level", "2", "--template", "P[2] U^2 + P[1] U^-2"],
    ["verify-counts", "--level", "2"],
    ["verify-counts", "--level", "3"],
    ["verify-table"],
]
INVOCATIONS = [argv + extra for argv in _PLAIN for extra in ([], ["--json"])]


def transcript() -> str:
    blocks = []
    for argv in INVOCATIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        blocks.append(f"$ qu2 {shlex.join(argv)}\n[exit {code}]\n{out.getvalue()}")
    return "".join(blocks)


def test_cli_golden_transcript(monkeypatch):
    monkeypatch.delenv("QU2_TABLE", raising=False)
    assert transcript() == TRANSCRIPT.read_text()


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(transcript())
