"""Keeps the benchmark harness from rotting.  Not part of tier-1; run with
``PYTHONPATH=src python -m pytest -q bench/tests``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import ref  # noqa: E402
from seedqa import (  # noqa: E402
    AnnotatedInstance, Instance, SeedQuery, build_graph, estimate_tokens, mine_seeds,
    save_graph, tokenize,
)
from seedqa.evaluation import _lcs_length  # noqa: E402


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "CHECK FAILED" not in proc.stdout


def test_references_agree_with_the_package(tmp_path):
    rng = random.Random(5)
    alphabet = gen.FILL_CHARS[:6] + list("ab Z1\n，。") + ["HbA1c "]
    for _ in range(300):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        assert ref.estimate_tokens(a) == estimate_tokens(a)
        assert ref.tokenize(a) == tokenize(a)
        assert ref.lcs_length(tokenize(a), tokenize(b)) == _lcs_length(tokenize(a), tokenize(b))

    terms = [f"e{i}" for i in range(40)]
    sets = [(frozenset(rng.sample(terms, 4)), frozenset(rng.sample(terms, 5)))
            for _ in range(120)]
    counts = ref.CountGraph(sets)
    inst = Instance(id="x", question="q", options={"A": "a"}, answer="A", analysis="r")
    graph = build_graph(AnnotatedInstance(inst, qo, r) for qo, r in sets)
    for qo, _ in sets[:30]:
        want = counts.mine(qo, 10)[0]
        assert [tuple(s) for s in mine_seeds(graph, SeedQuery(qo), 10).seeds] == want

    save_graph(graph, str(tmp_path / "lib.kg"))
    ref.write_graph_v1(counts, str(tmp_path / "ref.kg"))
    assert (tmp_path / "lib.kg").read_bytes() == (tmp_path / "ref.kg").read_bytes()
