"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from curvekit import cli

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


def test_configuration_example_loads(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n### Configuration\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "curvekit.conf"
    path.write_text(block, encoding="utf-8")
    monkeypatch.delenv("CURVEKIT_OUT_DIR", raising=False)
    cfg = cli.Config.load(str(path))
    assert (cfg.tol, cfg.samples, cfg.out_dir, cfg.lambda_min, cfg.lambda_max) == (
        1e-10, 500, "/tmp/curves", 1e-6, 1e6)
