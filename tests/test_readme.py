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
