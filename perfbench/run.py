"""The fuchs benchmark: seeded CLI workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload decide-stream --seed 1 --seconds 60 --trace 0

Run from the repository root.  The parent generates every input from the
seed, then spawns fresh worker processes one after another (one client,
closed loop); each worker imports ``fuchs.cli`` and runs the whole op list
once, so every round pays the cold module caches a CLI user pays.  Rounds
repeat until ``--seconds`` is used up, and each metric is the median over
rounds.  The last stdout line is one JSON object:

* ``--trace 0``: setup_s, wall_s, cpu_s, peak_rss_mb; the info line before
  it adds op_p50_ms and op_tail_ms (milliseconds), the seconds each op kind
  takes a round (kind_s), the fail ratio and the output digest;
* ``--trace 1``: untraced and traced rounds alternate; the traced ones give
  ``<module>.<function>.calls`` / ``.self_s`` and the layer counters, and
  ``trace.overhead_ratio`` is traced over untraced median wall time.

``failed``/``attempted`` is the fail ratio: an op fails on an exception,
exit code 3, JSON that breaks the shipped schema, or a failed output check.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = ROOT / "src" / "fuchs" / "data" / "verdict-schema.json"
WORK = Path(".perfbench_work")          # relative to ROOT, git-ignored
WORKER_TIMEOUT = 120                    # one round; keeps a run under 180 s
SETUP_SPAWNS = 5                        # extra import-only workers per run


def _args(argv):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_round(ops_file: Path, out_dir: Path, index, traced: bool) -> dict:
    """Spawn one worker over the op list and return its result document,
    with ``setup`` (spawn until ``import fuchs.cli`` returned) added."""
    result = out_dir / f"round{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_file), str(result),
           "1" if traced else "0"]
    if traced:
        cmd.append(str(out_dir / "spans.tsv"))
    spawned = time.perf_counter()   # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT)
    ended = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    doc["setup"] = doc["imported"] - spawned
    doc["duration"] = ended - spawned
    doc["traced"] = traced
    return doc


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it.  With ten ops or fewer no percentile has ten beyond it, and
    the slowest op is reported."""
    lat = sorted(latencies)
    k = len(lat) - 10 if len(lat) > 10 else len(lat)   # ops at or below
    return lat[k - 1], 100.0 * k / len(lat)


def end_to_end(ops: list[dict], rounds: list[dict],
               setups: list[float]) -> tuple[dict, dict]:
    """Medians over rounds.  The op-latency percentiles go to the info
    line: each is the latency of one op, which moves by more than any
    allowed bound between runs on a shared machine.  They are taken per
    round (every round runs the same op list) and then over rounds, so they
    do not depend on how many rounds fit into the run.  ``kind_s`` splits a
    round's time by op kind (check kind), so the oracle families of
    ``oracles`` can be told apart."""
    med = statistics.median
    per_round = [[op["latency"] for op in r["ops"]] for r in rounds]
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_s": (med(r["wall"] for r in rounds), "s"),
        "cpu_s": (med(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    info = {"rounds": len(rounds), "ops_per_round": len(per_round[0]),
            "setup_spawns": len(setups),
            "op_p50_ms": 1000 * med(med(lat) for lat in per_round),
            "op_tail_ms": 1000 * med(tail(lat)[0] for lat in per_round),
            "op_tail_percentile": round(tail(per_round[0])[1], 2)}
    kinds = sorted({op["check"]["kind"] for op in ops})
    info["kind_s"] = {
        kind: med(sum(lat for op, lat in zip(ops, lats)
                      if op["check"]["kind"] == kind) for lats in per_round)
        for kind in kinds}
    return metrics, info


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced rounds."""
    import tracing
    med = statistics.median
    metrics = {}
    for name in tracing.SPAN_NAMES:
        stats = [r["layers"].get(name, (0, 0.0)) for r in traced]
        metrics[f"{name}.calls"] = (med(s[0] for s in stats), "count")
        metrics[f"{name}.self_s"] = (med(s[1] for s in stats), "s")
    for name in tracing.COUNTERS:
        metrics[name] = (med(r["counts"][name] for r in traced), "count")
    attempts = metrics["radical.validate_radical.calls"][0]
    metrics["radical.useful_ratio"] = (
        metrics["radical.classes"][0] / attempts if attempts else 0.0, "1")
    metrics["trace.overhead_ratio"] = (
        med(r["wall"] for r in traced) / med(r["wall"] for r in untraced),
        "1")
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not (SCHEMA.is_file() and (ROOT / "src" / "fuchs" / "cli.py").is_file()):
        print(f"no fuchs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import jsonschema
    import workloads
    from checks import check_op

    os.chdir(ROOT)
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, work / "inputs")
    ops_file = work / "ops.json"
    ops_file.write_text(json.dumps([op["argv"] for op in ops]), encoding="utf-8")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    validator = jsonschema.Draft202012Validator(
        json.loads(SCHEMA.read_text(encoding="utf-8")))

    start = time.perf_counter()
    empty = work / "no-ops.json"
    empty.write_text("[]", encoding="utf-8")
    setups = [run_round(empty, work, "-setup", False)["setup"]
              for _ in range(SETUP_SPAWNS)]
    rounds, failures, digests = [], [], set()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        doc = run_round(ops_file, work, len(rounds), traced)
        rounds.append(doc)
        digest = hashlib.sha256()
        for i, (op, res) in enumerate(zip(ops, doc["ops"])):
            digest.update(res["stdout"].encode())
            reason = check_op(op["check"], res["code"], res["stdout"], validator)
            if reason:
                failures.append(f"round {len(rounds) - 1} op {i} "
                                f"{' '.join(op['argv'])}: {reason}")
        digests.add(digest.hexdigest())
        left = args.seconds - (time.perf_counter() - start)
        longest = max(r["duration"] for r in rounds)
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and left < longest:
            break

    untraced = [r for r in rounds if not r["traced"]]
    metrics, info = end_to_end(ops, untraced,
                               setups + [r["setup"] for r in rounds])
    if args.trace:
        metrics = per_layer([r for r in rounds if r["traced"]], untraced)
    attempted = len(ops) * len(rounds)
    info.update(workload=args.workload, seed=args.seed,
                fail_ratio=len(failures) / attempted,
                output_sha256=sorted(digests),
                inputs=workloads.describe(args.workload, ops))
    for line in failures[:20]:
        print(f"FAIL {line}")
    print("info " + json.dumps(info, sort_keys=True))
    (work / "summary.json").write_text(
        json.dumps({"info": info, "failures": failures, "metrics": metrics},
                   indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
