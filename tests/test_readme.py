"""README.md's examples run and say what they do."""

import re

from idepull import load_config, parse_config
from oracles import readme_block


def test_quick_start_runs_and_its_comment_holds():
    code = readme_block("python")
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    used, total = map(int, re.search(r"# (\d+) of a budget of (\d+) steps", code).groups())
    assert (scope["fibers"].steps_used, scope["budget"].total_steps) == (used, total) == (412, 8760)


def test_schema_block_is_the_shipped_config():
    assert parse_config(readme_block("yaml")) == load_config("configs/seasonal_beverton_holt.yaml")
