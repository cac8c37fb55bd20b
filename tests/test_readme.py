"""The README's library quickstart runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    exec(compile(quickstart_code(), f"{README} (Library quickstart)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert "step_index=7" in lines[0]  # species 0 dies during step 7
    assert lines[1] == "[0. 1.]"
    assert lines[-1] == "0.7"
