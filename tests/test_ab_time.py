"""A/A smoke test of tools/ab_time.py: the committed tree against the working
tree, at a micro size of the desk workload."""
from __future__ import annotations

import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNITS = ("prepare", "retrieval_epoch", "generation_epoch", "finetune_epoch", "score_batched",
         "score_b1", "decode_step")
MICRO = ["--set", "d_model=16", "--set", "n_layers=1", "--set", "n_heads=2",
         "--set", "d_ffn=32", "--set", "pooled_dim=16"]


def test_head_against_working_tree_reports_every_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_time.py"), "--parent", "HEAD",
         "--workload", "desk", "--repeats", "2", *MICRO],
        capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# desk, parent HEAD, 2 repeats, cpu ")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert tuple(rows) == UNITS
    assert lines[1].split()[-2:] == ["parent_flt", "change_flt"]
    for unit, (parent_s, change_s, ratio, iqr, won, parent_flt, change_flt) in rows.items():
        assert float(parent_s) > 0 and float(change_s) > 0, unit
        assert math.isfinite(float(ratio)) and float(ratio) > 0, unit
        q1, q3 = (float(q) for q in iqr.split("-"))
        assert q1 <= float(ratio) <= q3, unit
        assert won in ("0/2", "1/2", "2/2"), unit
        assert int(parent_flt) >= 0 and int(change_flt) >= 0, unit
