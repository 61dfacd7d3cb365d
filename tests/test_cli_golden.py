"""Byte-for-byte pins of the CLI's ``--json`` output on a fixed query set.

Refactors of the rings, the group recovery or the deciders must leave this
output unchanged.  Regenerate the golden file only when an output change is
intended:

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from fuchs.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

QUERIES = (
    ("decide", "--class", "finite", "Z/328Z"),
    ("decide", "--class", "tn", "Z/328Z x Z"),
    ("decide", "--class", "tn", "Z/8Z"),
    ("decide", "--class", "any", "Z/4Z x Z/16Z"),
    ("rank", "Z/8Z x Z/41Z"),
    ("oracle", "radical", "--prime", "2", "--exp", "3"),
    ("oracle", "radical", "--prime", "3", "--exp", "3"),
    ("oracle", "radical", "--prime", "5", "--exp", "3"),
    ("oracle", "finring", "--corpus"),
    ("example", "paper-7-1"),
    ("example", "paper-7-2-v2"),
    ("example", "paper-7-2-v4"),
    ("table", "cyclic", "--max", "60"),
)


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_cli_json_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == [list(q) for q in QUERIES]
    for expected in golden:
        assert _run(expected["argv"]) == expected, expected["argv"]


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(q) for q in QUERIES], indent=1) + "\n",
                      encoding="utf-8")
