"""The README's examples run as written: the CLI block as one sequence from
an empty directory, and the Python example to its stated precision."""

import os
import re
import shlex

from panoroom import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def code_blocks(lang):
    with open(README, encoding="utf-8") as f:
        return re.findall(rf"```{lang}\n(.*?)```", f.read(), re.S)


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    (block,) = [b for b in code_blocks("sh") if b.startswith("panoroom synth")]
    monkeypatch.chdir(tmp_path)
    for line in block.replace("\\\n", " ").splitlines():
        program, *argv = shlex.split(line)
        assert program == "panoroom"
        assert cli.main(argv) == 0, line
    assert os.path.getsize("cloud.ply") > 0


def test_python_example_prints_its_rmse(capsys):
    (block,) = code_blocks("python")
    exec(block, {})
    assert float(capsys.readouterr().out) <= 1e-12
