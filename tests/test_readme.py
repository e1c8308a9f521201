"""README's examples run as documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from fairdetach.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_quick_start_runs() -> None:
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_documented_cli_failure(capsys) -> None:
    (line,) = [ln for ln in README.splitlines() if "# exit 3, condition (i)" in ln]
    argv = shlex.split(line.split("#")[0])
    assert argv[:2] == ["fairdetach", "ham"]
    assert main(argv[1:]) == 3
    assert "condition (i)" in capsys.readouterr().err
