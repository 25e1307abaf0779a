"""The README's library quick start runs as written."""

import re
from pathlib import Path

from sdgzsl import BASELINE_TAG, STRATEGIES

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The one ```python block of the "Quick start (library)" section."""
    section = README.read_text().split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    return code


def test_the_library_quick_start_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    first, *swept = capsys.readouterr().out.splitlines()
    assert all(0.0 <= float(v) <= 1.0 for v in first.split())  # h, balanced gate accuracy
    assert [line.split()[0] for line in swept] == [*STRATEGIES, BASELINE_TAG]
