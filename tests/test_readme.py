"""The README's library quickstart and JSON config run as written."""

import json
import math
import re
from pathlib import Path

from amoo import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert math.isfinite(namespace["trace"].final().residual)


def test_json_configs_parse_and_run(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    configs = [doc for doc in map(json.loads, blocks) if "problem" in doc]
    assert configs
    for i, doc in enumerate(configs):
        cfg = cli.parse_run_config(doc)
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out{i}"
        assert cli.cmd_run(str(path), str(out)) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert int(lines[-1].split(",")[0]) == cfg.steps
