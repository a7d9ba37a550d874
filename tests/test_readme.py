"""The README's examples run as written.

The ```python blocks run in order in one namespace, as a reader would paste
them, so a renamed function or a changed signature breaks this test before
it breaks the Quick start.  Every ``mpsrestrict`` line of the ```sh blocks
runs through ``cli.main`` in order, so a renamed flag breaks it too.
"""

import re
import shlex
from pathlib import Path

from mpsrestrict.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run():
    blocks = fenced_blocks(README.read_text(encoding="utf-8"), "python")
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    commands = [
        shlex.split(line)[1:]
        for block in fenced_blocks(README.read_text(encoding="utf-8"), "sh")
        for line in block.splitlines()
        if line.startswith("mpsrestrict ")
    ]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    # the model file the analyze example reads
    assert main(["generate", "haar", "--dim", "2", "--phys", "3", "--seed", "42", "--out", "my_model.json"]) == 0
    for argv in commands:
        assert main(argv) == 0, argv
