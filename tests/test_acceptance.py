"""Acceptance gate: one test per end-to-end guarantee the package makes.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  Everything here runs offline in seconds.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import socket
import time

import pytest

from seedqa.client import ChatClient, ClientConfig
from seedqa.entities import LexiconExtractor, Lexicon, annotate_dataset
from seedqa.evaluation import (
    EvalRecord,
    bleu_n,
    build_report,
    load_records,
    rouge_l,
    rouge_n,
    run_eval,
    save_records,
    save_report,
    seed_quality,
)
from seedqa.graph import build_graph
from seedqa.prompts import (
    PromptSpec,
    compose,
    default_exemplars,
)
from seedqa.seeds import SeedQuery, mine_seeds
from seedqa.textseg import estimate_tokens

from conftest import (
    ENTITY_POOL,
    brute_bleu,
    brute_rouge_l,
    brute_rouge_n,
    naive_graph_stats,
    oracle_seed_ranking,
    pipeline_requests,
    random_annotated,
    row_weights,
    synth_dataset,
    write_replay_fixture,
)


def test_graph_construction_matches_independent_oracle(toy_train):
    """Co-occurrence counts, frequencies, and weights equal a plain-loop
    reference on 200 random corpora; the worked micro-corpus is exact."""
    graph = build_graph(toy_train)
    assert graph.m == 5
    assert graph.raw_counts[("a", "c")] == 2
    assert graph.raw_counts[("b", "d")] == 2
    assert graph.raw_counts[("a", "d")] == 1
    assert ("c", "a") not in graph.raw_counts
    assert graph.analysis_freq == {"c": 2, "d": 2}
    weights = row_weights(graph)
    assert weights[("a", "c")] == pytest.approx(
        (2 / 3) * math.log10(5 / 3), abs=1e-9
    )
    assert weights[("a", "d")] == pytest.approx(
        (1 / 3) * math.log10(5 / 3), abs=1e-9
    )

    rng = random.Random(404)
    start = time.monotonic()
    for _ in range(200):
        train = random_annotated(rng, rng.randint(1, 20))
        built = build_graph(train)
        m, raw, freq, weights = naive_graph_stats(train)
        assert built.m == m
        assert built.raw_counts == raw
        assert built.analysis_freq == freq
        got = row_weights(built)
        assert set(got) == set(weights)
        for edge, expected in weights.items():
            assert got[edge] == pytest.approx(expected, abs=1e-9)
    assert time.monotonic() - start < 5.0


def test_seed_mining_matches_exhaustive_oracle(toy_graph):
    """Rank-aggregated seeds equal exhaustive scoring with the absence
    penalty and full tie-break on 200 random graphs; the micro-corpus
    query {a, b} yields [c, d] with scores [3, 3]."""
    toy = mine_seeds(toy_graph, SeedQuery(frozenset({"a", "b"})), 10)
    assert toy.entities == ("c", "d")
    assert toy.scores == (3, 3)

    rng = random.Random(405)
    start = time.monotonic()
    for _ in range(200):
        train = random_annotated(rng, rng.randint(2, 20))
        graph = build_graph(train)
        if not graph.nodes:
            continue
        m, raw, freq, weights = naive_graph_stats(train)
        size = rng.randint(1, min(3, len(graph.nodes)))
        query = set(rng.sample(sorted(graph.nodes), size))
        k = rng.choice((3, 5, 10, len(graph.nodes)))
        mined = mine_seeds(graph, SeedQuery(frozenset(query)), k)
        assert list(mined.seeds) == oracle_seed_ranking(graph.nodes, weights, query, k)
    assert time.monotonic() - start < 5.0


def test_text_metrics_match_reference_values():
    """BLEU and ROUGE reproduce hand-computed fixtures and agree with
    brute-force reference implementations on 500 random pairs."""
    same = "the cat sat on the mat"
    assert bleu_n(same, same, 4) == pytest.approx(1.0, abs=1e-6)
    assert rouge_n(same, same, 1) == pytest.approx(100.0, abs=1e-6)
    assert rouge_l(same, same) == pytest.approx(100.0, abs=1e-6)
    # shorter candidate: unigram precision 1.0, brevity penalty exp(1 - 4/2)
    assert bleu_n("a b", "a b c d", 1) == pytest.approx(0.36788, abs=1e-6)
    assert bleu_n("a b", "a b c d", 1) == pytest.approx(math.exp(-1), abs=1e-9)
    # LCS "a c e" of length 3: P = 1, R = 3/5, F1 = 0.75 scaled to 100
    assert rouge_l("a c e", "a b c d e") == pytest.approx(75.0, abs=1e-6)

    rng = random.Random(406)
    vocab = ["a", "b", "c", "d", "e", "f", "g"]
    for _ in range(500):
        cand = " ".join(rng.choices(vocab, k=rng.randint(0, 12)))
        ref = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        cand_toks = cand.split()
        ref_toks = ref.split()
        for order in (1, 2, 3, 4):
            assert bleu_n(cand, ref, order) == pytest.approx(
                brute_bleu(cand_toks, ref_toks, order), abs=1e-9
            )
        for order in (1, 2):
            assert rouge_n(cand, ref, order) == pytest.approx(
                brute_rouge_n(cand_toks, ref_toks, order), abs=1e-9
            )
        assert rouge_l(cand, ref) == pytest.approx(
            brute_rouge_l(tuple(cand_toks), tuple(ref_toks)), abs=1e-9
        )


def replay_run(tmp_path, workers=1):
    """The 20-instance icp replay run: 13 correct, 4 wrong and 3 unresolved
    responses.  Returns the bytes of its records.jsonl and report.json."""
    train = synth_dataset(101, 12, prefix="tr")
    extractor = LexiconExtractor(Lexicon(frozenset(ENTITY_POOL)))
    graph = build_graph(annotate_dataset(train, extractor))

    test = synth_dataset(102, 20, prefix="t")
    spec = PromptSpec("icp", "zero")
    requests = pipeline_requests(
        test, spec, "gpt-3.5-turbo-0613", graph=graph, extractor=extractor
    )
    wrong = {"A": "B", "B": "C", "C": "D", "D": "E", "E": "A"}
    responses = {}
    for pos, inst in enumerate(test):
        if pos < 13:
            responses[inst.id] = f"结合知识种子逐步分析，答案是{inst.answer}。"
        elif pos < 17:
            responses[inst.id] = f"分析后认为答案是{wrong[inst.answer]}。"
        else:
            responses[inst.id] = "该病情较为复杂，难以给出明确结论。"
    fixture = write_replay_fixture(tmp_path / "fixture.jsonl", requests, responses)
    client = ChatClient(ClientConfig(backend="replay", fixture_path=fixture))

    records, report = run_eval(
        test, client, spec, graph=graph, extractor=extractor,
        workers=workers, group_by=("discipline",),
    )
    assert report.total == 20
    assert report.correct == 13
    assert report.unresolved == 3
    assert report.errors == 0
    assert report.accuracy_pct == 65.0
    rec_path = tmp_path / f"records{workers}.jsonl"
    rep_path = tmp_path / f"report{workers}.json"
    save_records(records, str(rec_path))
    save_report(report, str(rep_path))
    return rec_path.read_bytes(), rep_path.read_bytes()


@pytest.mark.concurrency
def test_replay_evaluation_is_deterministic(tmp_path, monkeypatch):
    """A 20-instance replayed run scores exactly 65.00% accuracy and
    writes byte-identical records and report across repeated runs and
    across worker counts, with zero network traffic."""

    def no_network(*args, **kwargs):
        raise AssertionError("network call attempted during replay run")

    monkeypatch.setattr(socket.socket, "connect", no_network)

    outputs = [replay_run(tmp_path, workers) for workers in (1, 1, 8)]
    assert outputs[0] == outputs[1] == outputs[2]
    parsed = json.loads(outputs[0][1].decode("utf-8"))
    assert parsed["accuracy_pct"] == 65.0


# SHA-256 of the replay run's records.jsonl and report.json.  They move
# whenever what the pipeline computes, or how records and reports are
# written, changes; such a change must state and pin the new values.
REPLAY_RECORDS_SHA256 = "c519bbf9e5db36ba0316830ad322313c940d7053ab477ddd5a224fb87182a25b"
REPLAY_REPORT_SHA256 = "b0551acb07f8ca99ad533c7b95d968615c84a530f4d807dfd3e326743193e9b7"


def test_replay_evaluation_bytes_are_pinned(tmp_path):
    records, report = replay_run(tmp_path)
    assert hashlib.sha256(records).hexdigest() == REPLAY_RECORDS_SHA256
    assert hashlib.sha256(report).hexdigest() == REPLAY_REPORT_SHA256


def test_prompt_mode_contracts_and_token_budget():
    """Instruction wording is frozen per mode, seed and reasoning text
    appear only where the mode allows, and every few-shot prompt fits
    the default token budget."""
    dataset = synth_dataset(103, 8)
    graph = build_graph(
        annotate_dataset(dataset, LexiconExtractor(Lexicon(frozenset(ENTITY_POOL))))
    )
    extractor = LexiconExtractor(Lexicon(frozenset(ENTITY_POOL)))
    exemplars = default_exemplars()

    for inst in dataset:
        from seedqa.corpus import qo_text

        seeds = mine_seeds(graph, SeedQuery(frozenset(extractor(qo_text(inst)))), 10)
        for shots in ("zero", "few"):
            qa = compose(inst, PromptSpec("standard_qa", shots, exemplars=exemplars))
            cot = compose(inst, PromptSpec("cot", shots, exemplars=exemplars))
            icp = compose(
                inst, PromptSpec("icp", shots, exemplars=exemplars), seeds=seeds
            )

            assert (
                "Here is a multi-choice question about medical knowledge, "
                "please output the correct answer according to the question." in qa.text
            )
            assert (
                "please analyze it in a step-by-step fashion and deduce "
                "the correct answer." in cot.text
            )
            assert (
                "Here is a clinical question, please refer to the knowledge "
                "seeds related to question-solving, and analyze this question "
                "step by step." in icp.text
            )

            assert "knowledge seeds:" not in qa.text
            assert "knowledge seeds:" not in cot.text
            assert "step" not in qa.text.split("question.")[0]
            assert icp.text.count("knowledge seeds:") >= 1
            if shots == "few":
                assert icp.text.count("knowledge seeds:") == icp.kept_exemplars + 1
                for prompt in (qa, cot, icp):
                    assert estimate_tokens(prompt.text) <= 4097 - 256
                    assert prompt.max_tokens == 4097 - estimate_tokens(prompt.text)
            assert qa.estimated_tokens == estimate_tokens(qa.text)


def test_seed_quality_arithmetic_and_split_table(tmp_path):
    """Seed precision/recall/F1 reproduce exact set arithmetic, and the
    correct-versus-incorrect metric table regenerates from a saved
    records file."""
    p, r, f1 = seed_quality(["c", "d"], {"c", "x", "y"})
    assert p == 0.5
    assert r == 1 / 3
    assert f1 == 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)
    assert seed_quality([], {"x"}) == (0.0, 0.0, 0.0)
    assert seed_quality(["x"], set()) == (0.0, 0.0, 0.0)
    assert seed_quality(["a", "b"], {"a", "b"}) == (1.0, 1.0, 1.0)

    def record(iid, correct, f1):
        return EvalRecord(
            instance_id=iid, mode="icp", shots="zero", prompt_digest="d" * 64,
            response_text="答案是A。", extracted_answer="A" if correct else "B",
            gold_answer="A", correct=correct,
            seed_count=2, seed_precision=f1, seed_recall=f1, seed_f1=f1,
        )

    records = [
        record("r1", True, 0.4), record("r2", True, 0.6),
        record("r3", False, 0.2), record("r4", False, 0.0),
    ]
    path = tmp_path / "records.jsonl"
    save_records(records, str(path))
    report = build_report(load_records(str(path)))
    assert report.answer_split["correct"]["count"] == 2
    assert report.answer_split["correct"]["seed_f1"] == pytest.approx(0.5)
    assert report.answer_split["incorrect"]["count"] == 2
    assert report.answer_split["incorrect"]["seed_f1"] == pytest.approx(0.1)
    assert (
        report.answer_split["correct"]["seed_f1"]
        > report.answer_split["incorrect"]["seed_f1"]
    )
