"""The README's Python Quickstart runs as printed, so it cannot go stale unnoticed."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs_and_prints_what_it_promises(capsys):
    text = README.read_text()
    code = re.search(r"^## Quickstart\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    assert "# converged [1. 2.]" in code
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "converged [1. 2.]"
