"""Golden CLI corpus: fixed commands whose exit code and stdout must not change.

Commands live one per line in golden/cli_commands.txt; the expected exit code
and stdout of each are in golden/cli_expected.txt.  After a deliberate output
change, rewrite the expected file with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from pi_kiln import cli

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = (GOLDEN / "cli_commands.txt").read_text().splitlines()


def run(command: str) -> str:
    """`$ command`, `[exit N]` and the stdout that cli.main prints for it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(shlex.split(command))
    return f"$ {command}\n[exit {rc}]\n{out.getvalue()}"


def expected() -> dict:
    blocks = (GOLDEN / "cli_expected.txt").read_text().split("$ ")[1:]
    return {block.split("\n", 1)[0]: "$ " + block for block in blocks}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    assert run(command) == expected()[command]


def test_cli_output_matches_golden_in_reverse_order():
    # in-process requests share one parser, so no command's output may
    # depend on the commands served before it
    want = expected()
    for command in reversed(COMMANDS):
        assert run(command) == want[command]


if __name__ == "__main__":
    (GOLDEN / "cli_expected.txt").write_text("".join(run(c) for c in COMMANDS))
