"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_run():
    blocks = library_blocks()
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md Library block {i}", "exec"), {})
