"""The README's Python blocks run as written, each in a fresh namespace
with its printing captured."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for number, block in enumerate(blocks, start=1):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md python block {number}", "exec"), {})
