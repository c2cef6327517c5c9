import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    # the documented import paths and calls, run as written
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "all nodes fair: True" in out
