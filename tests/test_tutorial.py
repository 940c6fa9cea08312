"""docs/TUTORIAL.md's code blocks must keep working, in order."""

import pathlib
import re

TUTORIAL = pathlib.Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", TUTORIAL.read_text(), re.DOTALL)


def test_tutorial_blocks_run_in_sequence():
    """Every python block runs after the ones before it, in one
    namespace, the way a reader following the tutorial runs them."""
    blocks = python_blocks()
    assert len(blocks) >= 5, "the tutorial lost its python blocks"
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"<TUTORIAL block {number}>", "exec"), namespace)
    server = namespace["server"]
    assert server.call("AssessChange", 100) == [("ESCALATE",)]
