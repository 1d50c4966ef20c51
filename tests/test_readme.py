import re
import shlex
from pathlib import Path

import sparse24 as s
from sparse24.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_holds():
    readme = README.read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    # the quick start's own claim: spmm on the compressed operand equals
    # gemm_dense on the pruned one, bit for bit
    assert ns["out"].data.tobytes() == s.gemm_dense(ns["pruned"], ns["b"]).data.tobytes()


def test_recipe_example_parses():
    readme = README.read_text()
    block = re.search(r"### Recipe files\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    recipe = s.parse_recipe(block)
    assert [p.kind.value for p in recipe.phases] == ["train_dense", "prune", "retrain_sparse"]
    assert recipe.phases[2].schedule == recipe.phases[0].schedule


def test_cli_examples_parse(tmp_path, monkeypatch):
    """Every command line of the CLI section parses with today's options."""
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert lines and all(words[0] == "sparse24" for words in lines)
    monkeypatch.chdir(tmp_path)
    for _, cmd, *args in lines:
        for arg in args:
            if arg.endswith((".s24t", ".recipe")):
                (tmp_path / arg).touch()
        main.get_command(None, cmd).make_context(cmd, args)
