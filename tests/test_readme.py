"""The README's quick starts, library and CLI, run as written."""

import re
import shlex
from pathlib import Path

from sdgzsl import BASELINE_TAG, STRATEGIES
from sdgzsl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The one ```python block of the "Quick start (library)" section."""
    [code] = re.findall(r"```python\n(.*?)```", section("Quick start (library)"), re.S)
    return code


def cli_example() -> list[list[str]]:
    """The arguments of each ``sdgzsl`` line of the "Quick start (CLI)" block."""
    [block] = re.findall(r"```\n(.*?)```", section("Quick start (CLI)"), re.S)
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert all(argv[0] == "sdgzsl" for argv in lines)
    return [argv[1:] for argv in lines]


def test_the_library_quick_start_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    first, *swept = capsys.readouterr().out.splitlines()
    assert all(0.0 <= float(v) <= 1.0 for v in first.split())  # h, balanced gate accuracy
    assert [line.split()[0] for line in swept] == [*STRATEGIES, BASELINE_TAG]


def test_the_cli_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = cli_example()
    assert [argv[0] for argv in commands] == ["gen", "train", "eval"]
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, argv
    # the files the README says train and eval write, all under --out run/
    written = ["model.ckpt", "loss.csv", "thresholds.kv", "sweep.csv"]
    written += [f"report_{tag}.{ext}" for tag in ("ol", "dl", "ws", "nogate") for ext in ("txt", "kv")]
    assert [name for name in written if not (tmp_path / "run" / name).is_file()] == []
