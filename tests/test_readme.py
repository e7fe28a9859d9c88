"""The README's library quick start runs as written and does what its
comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_as_documented(capsys):
    block = quick_start_block()
    assert "# 15 networks, one bridge each" in block
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    stable, partition = namespace["stable"], namespace["society"].partition
    assert len(stable) == 15
    assert all(network.inter_count(partition) == 1 for network in stable)
    assert float(capsys.readouterr().out) >= 1.0
