"""The README's documented entry points stay importable."""

import os

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_entry_point_block_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    assert "slocc_star_decompose" in block
    exec(compile(block, README, "exec"), {})
