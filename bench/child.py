"""One benchmark repetition in a fresh process.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory holding the seedqa package), ``commands``
(CLI argv lists run in order, in this process, through seedqa.cli.main) and
``trace`` (a repetition id to record spans under, or null).  RESULT gets the
wall time from importing the CLI to the last command's return, this
process's peak RSS, every exit code, and the spans when traced.

Peak RSS is ``VmHWM``, the high-water mark of this process's own address
space.  ``ru_maxrss`` is not used: after a vfork-and-exec spawn it also
carries the parent's peak.
"""

from __future__ import annotations

import json
import sys
import time


def calibration_kernel() -> float:
    """Seconds a fixed pure-Python task takes right now: filling and probing
    a dict of 60,000 integer keys in pseudo-random order, which misses the
    CPU caches much as the program's large dicts do.  Integer keys are not
    tracked by the garbage collector, so the kernel never triggers a
    collection of the heap the program leaves behind."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    x = 12345
    for i in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x] = i
    total = 0
    for _ in range(60000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table.get(x, 0)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    kernel_before = calibration_kernel()
    start, cpu_start = time.perf_counter(), time.process_time()
    import seedqa.cli

    entry, recorder = seedqa.cli.main, None
    if spec["trace"] is not None:
        import spans

        recorder = spans.Recorder(spec["trace"])
        recorder.install()
        entry = recorder.wrap(spans.ROOT, entry)
    codes = [entry(argv) for argv in spec["commands"]]
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    peak = peak_rss_mb()  # before the second kernel adds to a live heap
    result = {
        "kernel_s": [kernel_before, calibration_kernel()],
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "codes": codes,
        "spans": recorder.spans if recorder else None,
        "unwrapped": recorder.unwrapped if recorder else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
