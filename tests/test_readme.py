"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
