"""The README's library example runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_commented_values():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    printed = stdout.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # "# 0.34046..." is a prefix of the printed line, "# linearly_stable" the whole line
    said = [(line, code.partition("#")[2].strip())
            for line, code in zip(printed, prints) if "#" in code]
    assert [comment for _, comment in said] == [
        "unstable 0.03657...", "linearly_stable", "0.34046...", "below unstable",
        "0.1932..."]
    for line, comment in said:
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment
