"""Offline benchmark of the seedqa pipeline through its real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads (see bench/README.md for why each exists and what it predicts):
``build`` (annotate + build-graph), ``icp-few`` (seeded prompting over a
graph), ``cot-long`` (scoring long analyses), ``qa-budget`` (few-shot
prompts that overflow the token budget).  Inputs are generated from
``--seed`` before any timing starts.  Each repetition runs the workload's
CLI commands in a fresh single-worker child process; repetitions repeat
until ``--seconds`` have passed, and the medians are reported.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``inst_per_s``, ``setup_s`` (the same command on a
one-instance slice, repeated in the first rounds) and ``peak_rss_mb``.  With ``--trace 1`` untraced and
traced repetitions alternate and the metrics are the per-layer ones.
Every output is checked; a failed check sets ``correct`` to false and the
exit code to 1.  ``--smoke`` runs all four workloads at toy size, both
modes, checks included, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen
import ref
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_REPS = 3
# setup_s is the median of this many one-instance repetitions, run in the
# first rounds; later rounds run only full repetitions
SETUP_REPS = 5
# Seconds the calibration kernel takes on the reference machine speed; see
# scaled_wall().
KERNEL_REF_S = 0.025
CHILD_TIMEOUT_S = 150
# icp queries re-mined through the library and compared with the reference
MINE_SAMPLE = 8


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_child(work: str, commands: list[list[str]], trace: int | None = None) -> dict:
    spec_path = os.path.join(work, "child-spec.json")
    result_path = os.path.join(work, "child-result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "commands": commands, "trace": trace}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), spec_path, result_path],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"repetition process failed:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def scale(result: dict) -> float:
    """Factor that converts this repetition's seconds to reference seconds.

    The host's speed drifts by up to 2x within seconds (measured with a
    fixed kernel on a shared 2-vCPU VM), which no number of repetitions
    inside one run can average out.  Each child times a fixed calibration
    kernel just before and just after its timed region; times are scaled by
    ``KERNEL_REF_S`` over the mean of the two.  The kernel runs outside the
    timed region and does not touch the program.
    """
    return KERNEL_REF_S / statistics.mean(result["kernel_s"])


def scaled_wall(result: dict) -> float:
    return result["wall_s"] * scale(result)


# --- output checks -----------------------------------------------------------

def check_records(inputs: gen.Inputs, records_path: str, whole: bool) -> tuple[int, list[str]]:
    """Failed instances and run-level problems of one ``run`` output.

    An instance fails if its record is missing, duplicated or has an error
    (a replay miss included), if the extracted answer is not the planted
    one, or if its ROUGE-L differs from the reference LCS.
    """
    with open(records_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(os.path.dirname(records_path), "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    failed, seen, planted_correct = 0, set(), 0
    for rec in records:
        iid = rec.get("instance_id")
        want = inputs.expected.get(iid)
        ok = (
            want is not None and iid not in seen and rec.get("error") is None
            and rec.get("extracted_answer") == want[0]
            and rec.get("correct") == (want[0] == want[1])
        )
        if ok and iid in inputs.replies:
            score = rec.get("rouge_l")
            ok = score is not None and math.isclose(
                score, ref.rouge_l(*inputs.replies[iid]), rel_tol=1e-9, abs_tol=1e-9)
        seen.add(iid)
        failed += not ok
        planted_correct += want is not None and want[0] == want[1]
    problems = []
    if whole:
        failed += sum(iid not in seen for iid in inputs.expected)
    elif len(records) != 1:
        problems.append(f"one-instance slice wrote {len(records)} records")
    summary = (report.get("total"), report.get("correct"), report.get("errors"),
               report.get("unresolved"))
    if summary != (len(records), planted_correct, 0, 0):
        problems.append(
            f"report (total, correct, errors, unresolved) = {summary}, "
            f"expected ({len(records)}, {planted_correct}, 0, 0)")
    return failed, problems


def check_build(train, graph: ref.CountGraph, ann_path: str, graph_path: str
                ) -> tuple[int, list[str]]:
    """Annotated entity sets must equal the planted ones, and the graph the
    library loads must hold the benchmark's own accumulated counts."""
    want = {iid: (qo, r) for iid, qo, r in train}
    failed, seen = 0, set()
    with open(ann_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            iid = rec["id"]
            sides = (frozenset(rec["qo_entities"]), frozenset(rec["r_entities"]))
            failed += iid in seen or want.get(iid) != sides
            seen.add(iid)
    failed += len(want) - len(seen)
    from seedqa import load_graph

    loaded = load_graph(graph_path)
    problems = []
    if (tuple(loaded.nodes) != tuple(graph.nodes)
            or dict(loaded.raw_counts) != graph.edges()
            or dict(loaded.analysis_freq) != dict(graph.freq)):
        problems.append("loaded graph counts differ from the benchmark's accumulation")
    return failed, problems


def check_mining(inputs: gen.Inputs, k: int) -> list[str]:
    """A sample of queries mined by the library must equal the reference."""
    from seedqa import SeedQuery, load_graph, mine_seeds

    graph = load_graph(inputs.graph_path)
    ids = sorted(inputs.queries)
    problems = []
    for iid in ids[:: max(1, len(ids) // MINE_SAMPLE)]:
        got = [tuple(s) for s in mine_seeds(graph, SeedQuery(inputs.queries[iid]), k).seeds]
        if got != inputs.seeds[iid]:
            problems.append(f"mine_seeds differs from the reference miner on {iid}")
    return problems


class Verifier:
    """Checks each repetition's outputs.  Contents are checked in full the
    first time a kind of repetition runs; later ones must hash the same."""

    def __init__(self, inputs: gen.Inputs, sizes: gen.Sizes):
        self.inputs, self.sizes = inputs, sizes
        self.first: dict[str, tuple[list[str], int]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _check(self, kind: str, paths: list[str]) -> tuple[int, list[str]]:
        inp = self.inputs
        if inp.workload == "build":
            train = inp.train if kind == "full" else inp.train[:1]
            graph = inp.graph if kind == "full" else ref.CountGraph([(q, r) for _, q, r in train])
            return check_build(train, graph, *paths)
        failed, problems = check_records(inp, paths[0], whole=kind == "full")
        if inp.workload == "icp-few" and kind == "full":
            problems += check_mining(inp, self.sizes.k)
        return failed, problems

    def verify(self, kind: str, rep: int, result: dict) -> None:
        inp = self.inputs
        paths = inp.outputs if kind == "full" else inp.setup_outputs
        if any(code != 0 for code in result["codes"]):
            self.problems.append(f"{kind} repetition {rep} exit codes {result['codes']}")
        digests = [sha256(p) for p in paths]
        if kind not in self.first:
            failed, problems = self._check(kind, paths)
            self.first[kind] = (digests, failed)
            self.problems += problems
        elif digests != self.first[kind][0]:
            self.problems.append(f"{kind} repetition {rep} outputs differ from the first")
        self.attempted += inp.units if kind == "full" else 1
        self.failed += self.first[kind][1]
        names = " ".join(f"{os.path.basename(p)}={d}" for p, d in zip(paths, digests))
        print(f"rep {rep} {kind}{' traced' if result['spans'] else ''}: "
              f"wall {result['wall_s']:.4f} s, cpu {result['cpu_s']:.4f} s, "
              f"kernel {result['kernel_s'][0]:.4f} {result['kernel_s'][1]:.4f} s, peak rss {result['peak_rss_mb']:.1f} MB, "
              f"sha256 {names}")


# --- measurement -------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(inputs: gen.Inputs, sizes: gen.Sizes, work: str, seconds: float, trace: bool,
            min_reps: int) -> tuple[dict, Verifier]:
    verifier = Verifier(inputs, sizes)
    full, setup, traced = [], [], []
    deadline = time.monotonic() + seconds
    rep = 0
    while True:
        if not trace and len(setup) < SETUP_REPS:
            setup.append(run_child(work, inputs.setup))
            verifier.verify("setup", rep, setup[-1])
        full.append(run_child(work, inputs.full))
        verifier.verify("full", rep, full[-1])
        if trace:
            traced.append(run_child(work, inputs.full, trace=rep))
            verifier.verify("full", rep, traced[-1])
        rep += 1
        if rep >= min_reps and time.monotonic() >= deadline:
            break

    rates = [inputs.units / scaled_wall(r) for r in full]
    setups = [scaled_wall(r) for r in setup]
    for name, values, raw, unit in (
            ("inst_per_s", rates, [inputs.units / r["wall_s"] for r in full], "1/s"),
            ("setup_s", setups, [r["wall_s"] for r in setup], "s"),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in full], None, "MB")):
        if values:
            q1, q2, q3 = quartiles(values)
            unscaled = f", unscaled median {statistics.median(raw):.6g}" if raw else ""
            print(f"{name}: median {q2:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"n {len(values)}{unscaled})")
    if not trace:
        return {
            "inst_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in full), "MB"),
        }, verifier

    unwrapped = sorted({name for r in traced for name in r["unwrapped"]})
    if unwrapped:
        print(f"not traced (missing): {', '.join(unwrapped)}")
    summaries = [spans.RepSummary(r["spans"], scale(r)) for r in traced]
    metrics = spans.layer_metrics(summaries, list(inputs.pool_sizes.values()))
    graph_mb = os.path.getsize(inputs.graph_path) / 2**20 if inputs.graph_path else 0.0
    traced_wall = statistics.median(scaled_wall(r) for r in traced)
    plain_wall = statistics.median(scaled_wall(r) for r in full)
    metrics.update({
        "graph.edges": (inputs.graph.edge_count if inputs.graph else 0, "count"),
        "graph.file_mb": (graph_mb, "MB"),
        "trace.overhead_pct": (100 * (traced_wall - plain_wall) / plain_wall, "%"),
    })
    return metrics, verifier


def environment(workload: str, seed: int, sizes: gen.Sizes) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "sizes": vars(sizes),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: gen.Sizes,
                 min_reps: int = MIN_REPS) -> dict:
    """Generate, measure and check one workload; returns the result object."""
    work = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        print(json.dumps({"environment": environment(workload, seed, sizes)}, ensure_ascii=False))
        inputs = gen.WORKLOADS[workload](seed, sizes, work)
        metrics, verifier = measure(inputs, sizes, work, seconds, trace, min_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for problem in verifier.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_rate: {verifier.failed / verifier.attempted:.6g} "
          f"({verifier.failed} of {verifier.attempted} instances failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": verifier.failed == 0 and not verifier.problems,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at toy size, both modes, one pass each")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "seedqa", "__init__.py")):
        print(f"error: no seedqa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if not args.smoke:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), gen.FULL)
    else:
        results = [run_workload(name, args.seed, 0, trace, gen.SMOKE, min_reps=2)
                   for name in gen.WORKLOADS for trace in (False, True)]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
