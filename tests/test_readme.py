import re
from pathlib import Path

import sparse24 as s


def test_quick_start_runs_and_holds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    # the quick start's own claim: spmm on the compressed operand equals
    # gemm_dense on the pruned one, bit for bit
    assert ns["out"].data.tobytes() == s.gemm_dense(ns["pruned"], ns["b"]).data.tobytes()


def test_recipe_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Recipe files\n.*?```ini\n(.*?)```", readme, re.S).group(1)
    recipe = s.parse_recipe(block)
    assert [p.kind.value for p in recipe.phases] == ["train_dense", "prune", "retrain_sparse"]
    assert recipe.phases[2].schedule == recipe.phases[0].schedule
