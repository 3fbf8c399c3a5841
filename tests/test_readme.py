"""The ``python`` examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_python_example_runs(tmp_path, monkeypatch):
    """Each block runs in a fresh namespace, in an empty working directory,
    since an example may write files there."""
    text = README.read_text()
    blocks = [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]
    assert blocks
    monkeypatch.chdir(tmp_path)
    for line, source in blocks:
        # Padding with blank lines makes a traceback give the README line.
        exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})
