"""The README's library example runs as written and prints what its comments
say, and its simulation config is one the library and the CLI accept."""

import contextlib
import io
import json
import re
from pathlib import Path

from ringtwist.cli import main
from ringtwist.dynamics import SimulationConfig

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
        "0.0 inf", "0.1932..."]
    for line, comment in said:
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment


def test_config_block_is_a_simulation_config_that_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("A simulation config is a JSON object"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    config = SimulationConfig.from_dict(json.loads(block))
    assert config.graph.n == 1000 and config.t_end == 1000.0
    (tmp_path / "run.json").write_text(block)
    assert main(["simulate", "--config", str(tmp_path / "run.json"), "--set", "t_end=2",
                 "--out", str(tmp_path / "out")]) == 0
