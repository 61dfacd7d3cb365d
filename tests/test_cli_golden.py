"""Byte-for-byte pins of the CLI's ``--json`` output on a fixed query set.

Refactors of the rings, the group recovery or the deciders must leave this
output unchanged.  The ``construction-k*.tn`` files under ``tests/data`` are
``build_construction_model(k, H).to_presentation()`` for (2, [27]),
(4, [9, 9]) and (8, [13, 13]).  Regenerate the golden file only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from fuchs.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

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
    ("model", "tests/data/construction-k2-27.tn"),
    ("model", "tests/data/construction-k4-9-9.tn"),
    ("model", "tests/data/construction-k8-13-13.tn"),
    ("decide", "--class", "finite", "Z/2Z x Z/4Z x Z/3Z"),
    ("decide", "--class", "finite", "Z/3Z x Z/9Z"),
    ("decide", "--class", "finite", "Z/2Z x Z/32Z"),
    ("decide", "--class", "any", "Z/4Z x Z/8Z"),
    ("decide", "--class", "tn", "Z/4Z x Z/4Z"),
    ("decide", "--class", "any", "Z/3Z x Z/9Z"),
    ("decide", "--class", "any", "Z/2Z x Z/8Z x Z"),
)


def _run(argv) -> dict:
    # model files are named relative to the repository root
    paths = [str(ROOT / a) if a.endswith(".tn") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*paths, "--json"])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_cli_json_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == [list(q) for q in QUERIES]
    for expected in golden:
        assert _run(expected["argv"]) == expected, expected["argv"]


def test_cli_json_is_the_same_with_cold_and_warm_caches():
    from test_memos import _lru_caches
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for cache in _lru_caches().values():
        cache.cache_clear()
    cold = [_run(g["argv"]) for g in golden]
    warm = [_run(g["argv"]) for g in golden]
    assert cold == warm == golden


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(q) for q in QUERIES], indent=1) + "\n",
                      encoding="utf-8")
