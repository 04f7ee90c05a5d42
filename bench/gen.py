"""Seeded synthetic inputs for the four benchmark workloads.

Every file a workload hands the program (lexicon, datasets, graph, prompt
template, exemplars, replay fixture) comes from one integer seed, through
named random streams, so one seed always gives the same bytes.  ``build``
and ``icp-few`` draw the lexicon and train set from the same streams, so
icp-few's graph is exactly the graph ``build`` makes for that seed.

Text is built so lexicon matching finds exactly the planted entities:
lexicon terms use one block of CJK ideographs, filler text another, and
every entity is preceded by filler or a Latin token, so no match can span
two entities.  Latin tokens sprinkled through the CJK text give the script
segmentation real switches to find.  Every reply carries one planted
answer label, so the expected accuracy is known before the run.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field

import ref

TERM_CHARS = [chr(c) for c in range(0x6000, 0x6400)]
FILL_CHARS = [chr(c) for c in range(0x5000, 0x5400)]
LATIN = ("CT", "MRI", "IgG", "HbA1c", "5mg", "pH", "ECG", "ALT", "B12", "DNA", "PCR", "x2")
LABELS = "ABCDE"
DISCIPLINES = ("内科", "外科", "儿科", "妇产科")

MODEL = "bench-replay-model"
TEMPERATURE = 0.0
CONTEXT_TOKENS = 4097
RESERVED_TOKENS = 256
TEMPLATE = {
    "version": 1,
    "instructions": {
        "standard_qa": "Here is a multi-choice question about medical knowledge, "
                       "please output the correct answer according to the question.",
        "cot": "Here is a multi-choice question about medical knowledge, please analyze "
               "it in a step-by-step fashion and deduce the correct answer.",
        "icp": "Here is a clinical question, please refer to the knowledge seeds related "
               "to question-solving, and analyze this question step by step.",
    },
    "question_block": "question: {question}",
    "options_header": "options:",
    "option_line": "{label}. {text}",
    "seeds_block": "knowledge seeds: {seeds}",
    "seed_delimiter": "、",
    "analysis_block": "analysis: {analysis}",
    "answer_block": "answer: {answer}",
    "block_separator": "\n",
    "section_separator": "\n\n",
}
# share of replies that plant the gold label; the rest plant a wrong one
PLANTED_ACCURACY = 0.7


@dataclass(frozen=True)
class Sizes:
    """Traffic dimensions of the workloads."""

    lexicon: int = 5000
    train: int = 1000
    zipf_s: float = 1.0
    q_entities: int = 12
    a_entities: int = 14
    k: int = 10
    icp_test: int = 24
    icp_exemplars: int = 4
    cot_test: int = 5
    cot_chars: int = 600
    qa_test: int = 6
    qa_exemplars: int = 16
    qa_exemplar_chars: int = 380


FULL = Sizes()
SMOKE = Sizes(lexicon=300, train=60, q_entities=5, a_entities=6, icp_test=6,
              cot_test=4, cot_chars=120, qa_test=3)


@dataclass
class Inputs:
    """Generated files, the commands that consume them, and what the
    outputs must be."""

    workload: str
    units: int                      # instances one full repetition finishes
    full: list[list[str]]           # CLI argv lists of one full repetition
    setup: list[list[str]]          # the same on a one-instance slice
    outputs: list[str]              # files a full repetition writes
    setup_outputs: list[str]
    expected: dict[str, tuple[str, str]] = field(default_factory=dict)  # id -> (planted, gold)
    replies: dict[str, tuple[str, str]] = field(default_factory=dict)   # id -> (reply, analysis)
    train: list[tuple[str, frozenset, frozenset]] = field(default_factory=list)  # id, qo, r
    graph: ref.CountGraph | None = None
    graph_path: str | None = None
    queries: dict[str, frozenset] = field(default_factory=dict)        # id -> question entities
    seeds: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    pool_sizes: dict[str, int] = field(default_factory=dict)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def _fill(rng: random.Random, n: int) -> str:
    return "".join(rng.choices(FILL_CHARS, k=n))


def _prose(rng: random.Random, entities, gap=(1, 3)) -> str:
    parts = []
    for ent in entities:
        parts.append(_fill(rng, rng.randint(*gap)))
        if rng.random() < 0.15:
            parts.append(f" {rng.choice(LATIN)} ")
        parts.append(ent)
    parts.append(_fill(rng, rng.randint(*gap)) + "。")
    return "".join(parts)


def _options(rng: random.Random) -> dict[str, str]:
    return {
        label: _fill(rng, rng.randint(3, 6))
        + (f" {rng.choice(LATIN)}" if rng.random() < 0.2 else "")
        for label in LABELS
    }


def _plant(rng: random.Random, gold: str) -> str:
    if rng.random() < PLANTED_ACCURACY:
        return gold
    return rng.choice([l for l in LABELS if l != gold])


def _answer(label: str) -> str:
    return f"答案是{label}。"


class _Zipf:
    """Draws distinct lexicon terms with Zipf-skewed popularity."""

    def __init__(self, terms: list[str], s: float):
        self.terms = terms
        self.cum = list(itertools.accumulate(1 / (i + 1) ** s for i in range(len(terms))))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        out: dict[str, None] = {}
        while len(out) < k:
            for term in rng.choices(self.terms, cum_weights=self.cum, k=k - len(out)):
                out[term] = None
        return list(out)


def _lexicon(seed: int, sizes: Sizes) -> list[str]:
    rng = _rng(seed, "lexicon")
    terms: set[str] = set()
    while len(terms) < sizes.lexicon:
        terms.add("".join(rng.choices(TERM_CHARS, k=rng.randint(2, 4))))
    ordered = sorted(terms)
    rng.shuffle(ordered)  # popularity rank, unrelated to code point order
    return ordered


def _exam(rng: random.Random, iid: str, q_ents, a_ents) -> dict:
    return {
        "id": iid,
        "question": _prose(rng, q_ents),
        "options": _options(rng),
        "answer": rng.choice(LABELS),
        "analysis": _prose(rng, a_ents),
        "metadata": {"discipline": rng.choice(DISCIPLINES)},
    }


def _train(seed: int, sizes: Sizes, zipf: _Zipf) -> list[dict]:
    rng = _rng(seed, "train")
    out = []
    for i in range(sizes.train):
        q = zipf.draw(rng, sizes.q_entities)
        a = zipf.draw(rng, sizes.a_entities)
        rec = _exam(rng, f"t{i}", q, a)
        rec["_qo"], rec["_r"] = frozenset(q), frozenset(a)
        out.append(rec)
    return out


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            clean = {k: v for k, v in rec.items() if not k.startswith("_")}
            fh.write(json.dumps(clean, ensure_ascii=False) + "\n")


def _write_lexicon(path: str, terms: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{t}\n" for t in terms))


def _write_template(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(TEMPLATE, fh, ensure_ascii=False)


def _fixture(path: str, mode: str, exemplars, tests: list[dict], seeds_by_id=None) -> None:
    """Replay fixture: one planted reply per test request digest."""
    budget = CONTEXT_TOKENS - RESERVED_TOKENS
    with open(path, "w", encoding="utf-8") as fh:
        for inst in tests:
            seeds = None
            if seeds_by_id is not None:
                seeds = [e for e, _ in seeds_by_id[inst["id"]]]
            prompt, estimated = ref.render_prompt(TEMPLATE, mode, exemplars, inst, seeds, budget)
            max_tokens = max(CONTEXT_TOKENS - estimated, RESERVED_TOKENS)
            digest = ref.request_digest(MODEL, prompt, TEMPERATURE, max_tokens)
            fh.write(json.dumps({"digest": digest, "text": inst["_reply"]}, ensure_ascii=False))
            fh.write("\n")


def _run_argv(work: str, mode: str, shots: str, dataset: str, fixture: str, out_dir: str,
              extra: list[str]) -> list[str]:
    return [
        "run", "--dataset", dataset, "--mode", mode, "--shots", shots,
        "--template", os.path.join(work, "template.json"),
        "--backend", "replay", "--fixture", fixture, "--model", MODEL,
        "--workers", "1", "--out-dir", out_dir, *extra,
    ]


def _run_inputs(name: str, work: str, mode: str, shots: str, tests: list[dict],
                fixture: str, extra: list[str]) -> Inputs:
    dataset = os.path.join(work, "test.jsonl")
    _write_jsonl(dataset, tests)
    _write_template(os.path.join(work, "template.json"))
    full_out, setup_out = os.path.join(work, "out"), os.path.join(work, "out1")
    return Inputs(
        workload=name,
        units=len(tests),
        full=[_run_argv(work, mode, shots, dataset, fixture, full_out, extra)],
        setup=[_run_argv(work, mode, shots, dataset, fixture, setup_out,
                         extra + ["--test-size", "1", "--seed", "0"])],
        outputs=[os.path.join(full_out, "records.jsonl")],
        setup_outputs=[os.path.join(setup_out, "records.jsonl")],
        expected={t["id"]: (t["_planted"], t["answer"]) for t in tests},
    )


# --- workloads -------------------------------------------------------------

def build(seed: int, sizes: Sizes, work: str) -> Inputs:
    terms = _lexicon(seed, sizes)
    train = _train(seed, sizes, _Zipf(terms, sizes.zipf_s))
    lexicon = os.path.join(work, "lexicon.txt")
    _write_lexicon(lexicon, terms)
    full_ds, setup_ds = os.path.join(work, "train.jsonl"), os.path.join(work, "train1.jsonl")
    _write_jsonl(full_ds, train)
    _write_jsonl(setup_ds, train[:1])

    def argv(dataset, tag):
        ann, graph = os.path.join(work, f"{tag}.ann.jsonl"), os.path.join(work, f"{tag}.kg")
        return [
            ["annotate", "--dataset", dataset, "--lexicon", lexicon, "--out", ann,
             "--workers", "1"],
            ["build-graph", "--annotated", ann, "--out", graph],
        ], [ann, graph]

    full, outputs = argv(full_ds, "train")
    setup, setup_outputs = argv(setup_ds, "train1")
    sets = [(rec["_qo"], rec["_r"]) for rec in train]
    return Inputs(
        workload="build",
        units=len(train),
        full=full,
        setup=setup,
        outputs=outputs,
        setup_outputs=setup_outputs,
        train=[(rec["id"], rec["_qo"], rec["_r"]) for rec in train],
        graph=ref.CountGraph(sets),
        graph_path=outputs[1],
    )


def icp_few(seed: int, sizes: Sizes, work: str) -> Inputs:
    terms = _lexicon(seed, sizes)
    zipf = _Zipf(terms, sizes.zipf_s)
    graph = ref.CountGraph((rec["_qo"], rec["_r"]) for rec in _train(seed, sizes, zipf))
    graph_path, lexicon = os.path.join(work, "train.kg"), os.path.join(work, "lexicon.txt")
    ref.write_graph_v1(graph, graph_path)
    _write_lexicon(lexicon, terms)

    rng = _rng(seed, "icp-test")
    exemplars = []
    for i in range(sizes.icp_exemplars):
        ex = _exam(rng, f"e{i}", zipf.draw(rng, 3), zipf.draw(rng, 3))
        ex["seeds"] = zipf.draw(rng, 3)
        exemplars.append(ex)
    tests, queries = [], {}
    for i in range(sizes.icp_test):
        q = zipf.draw(rng, sizes.q_entities)
        a = zipf.draw(rng, sizes.a_entities)
        inst = _exam(rng, f"q{i}", q, a)
        inst["_planted"] = _plant(rng, inst["answer"])
        inst["_reply"] = _prose(rng, a[:3]) + _answer(inst["_planted"])
        tests.append(inst)
        queries[inst["id"]] = frozenset(q)
    mined = {iid: graph.mine(q, sizes.k) for iid, q in queries.items()}
    seeds = {iid: top for iid, (top, _) in mined.items()}

    ex_path, fixture = os.path.join(work, "exemplars.jsonl"), os.path.join(work, "fixture.jsonl")
    _write_jsonl(ex_path, exemplars)
    _fixture(fixture, "icp", exemplars, tests, seeds)
    inputs = _run_inputs(
        "icp-few", work, "icp", "few", tests, fixture,
        ["--graph", graph_path, "--lexicon", lexicon, "--exemplars", ex_path,
         "--k", str(sizes.k)],
    )
    inputs.graph, inputs.graph_path = graph, graph_path
    inputs.queries, inputs.seeds = queries, seeds
    inputs.pool_sizes = {iid: pool for iid, (_, pool) in mined.items()}
    return inputs


def _join(tokens: list[str]) -> str:
    """Text whose metric tokenization gives back exactly ``tokens``."""
    return "".join(f" {t} " if t.isascii() else t for t in tokens)


def cot_long(seed: int, sizes: Sizes, work: str) -> Inputs:
    """Analyses of exactly ``cot_chars`` tokens, and replies that keep the
    token count (each token kept or replaced), so every seed asks for the
    same LCS work."""
    rng = _rng(seed, "cot-test")
    tests = []
    for i in range(sizes.cot_test):
        inst = _exam(rng, f"c{i}", [], [])
        analysis = [rng.choice(LATIN) if rng.random() < 0.05 else rng.choice(FILL_CHARS)
                    for _ in range(sizes.cot_chars)]
        reply = [t if rng.random() < 0.8 else rng.choice(FILL_CHARS) for t in analysis]
        inst["analysis"] = _join(analysis) + "。"
        inst["_planted"] = _plant(rng, inst["answer"])
        inst["_reply"] = _join(reply) + _answer(inst["_planted"])
        tests.append(inst)
    fixture = os.path.join(work, "fixture.jsonl")
    _fixture(fixture, "cot", (), tests)
    inputs = _run_inputs("cot-long", work, "cot", "zero", tests, fixture, [])
    inputs.replies = {t["id"]: (t["_reply"], t["analysis"]) for t in tests}
    return inputs


def qa_budget(seed: int, sizes: Sizes, work: str) -> Inputs:
    rng = _rng(seed, "qa-test")
    exemplars = []
    for i in range(sizes.qa_exemplars):
        ex = _exam(rng, f"e{i}", [], [])
        ex["question"] = _prose(rng, [_fill(rng, 1) for _ in range(sizes.qa_exemplar_chars // 4)],
                                gap=(2, 4))
        exemplars.append(ex)
    tests = []
    for i in range(sizes.qa_test):
        inst = _exam(rng, f"s{i}", [], [])
        inst["_planted"] = _plant(rng, inst["answer"])
        inst["_reply"] = _answer(inst["_planted"])
        tests.append(inst)
    ex_path, fixture = os.path.join(work, "exemplars.jsonl"), os.path.join(work, "fixture.jsonl")
    _write_jsonl(ex_path, exemplars)
    _fixture(fixture, "standard_qa", exemplars, tests)
    return _run_inputs("qa-budget", work, "standard_qa", "few", tests, fixture,
                       ["--exemplars", ex_path])


WORKLOADS = {"build": build, "icp-few": icp_few, "cot-long": cot_long, "qa-budget": qa_budget}
