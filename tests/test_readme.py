"""The README's library sketch runs as printed, and its exit codes are the CLI's."""

import re
from pathlib import Path

from fracorlicz.cli import VERDICT_EXIT

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_verdict_exit_codes_match_cli():
    rows = re.findall(r"^\| `([A-Z]+)` \| (\d) \|", README.read_text(encoding="utf-8"), re.M)
    assert {verdict: int(code) for verdict, code in rows} == VERDICT_EXIT
    assert len(rows) == len(VERDICT_EXIT)
