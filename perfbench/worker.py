"""One fresh worker process: import the CLI, run an op list in a closed
loop, write the results.

    python3 perfbench/worker.py OPS_JSON RESULT_JSON TRACE [SPANS_TSV]

The import of ``fuchs.cli`` is the first thing it does, so the parent can
time set-up from spawn to import.  Every op goes through
``fuchs.cli.main(argv)`` with stdout and stderr captured; the next op
starts only after the previous one returns.  With TRACE=1 every public
function of every layer is wrapped (see ``tracing.py``) before the loop.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import fuchs.cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.  Unlike
    ``ru_maxrss``, which after a fork keeps the parent's high-water mark,
    VmHWM starts afresh at exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    ops_path, result_path, trace = argv[1], argv[2], argv[3] == "1"
    if Path(fuchs.cli.__file__).resolve().parent.parent != SRC:
        print(f"fuchs imported from {fuchs.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    ops = json.loads(Path(ops_path).read_text(encoding="utf-8"))
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, op_argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = fuchs.cli.main(op_argv)
            except Exception:  # a traceback is a failed op, not a crash
                code = None
                traceback.print_exc(file=err)
            latency = time.perf_counter() - start
        results.append({"code": code, "latency": latency,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    doc = {"imported": IMPORTED, "wall": wall, "cpu": cpu,
           "peak_rss_mb": peak_rss_mb(),
           "ops": results}
    if tracer:
        doc["layers"] = tracing.self_times(tracer.spans)
        doc["counts"] = tracer.counts
        if len(argv) > 4:
            with open(argv[4], "w", encoding="utf-8") as fh:
                fh.write("op\tname\tstart\tend\tparent\n")
                for name, start, end, parent, op in tracer.spans:
                    fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
