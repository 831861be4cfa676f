"""The README's Python quick start runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], "README.md", "exec"), {})
