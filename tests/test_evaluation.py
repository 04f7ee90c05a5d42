from __future__ import annotations

import itertools
import json
import math
import random
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from seedqa.client import ChatClient, ClientConfig, TransportError, request_digest
from seedqa.entities import Lexicon
from seedqa.evaluation import (
    ApiExhaustionError,
    EvalRecord,
    _lcs_length,
    build_report,
    extract_answer,
    load_records,
    ngram_scores,
    record_to_dict,
    rouge_l,
    run_eval,
    save_records,
    save_report,
    seed_quality,
)
from seedqa.graph import build_graph, load_graph, save_graph
from seedqa.prompts import PromptSpec

from conftest import (
    bleu_n,
    brute_bleu,
    brute_rouge_l,
    brute_rouge_n,
    count_request_digests,
    dp_lcs_length,
    per_order_bleu_n,
    per_order_rouge_n,
    pipeline_requests,
    rouge_n,
    synth_dataset,
    write_replay_fixture,
)


def rand_tokens(rng, max_len=25, vocab="abcdefgh"):
    return [rng.choice(vocab) for _ in range(rng.randint(0, max_len))]


# --- BLEU ---------------------------------------------------------------------

def test_bleu_identity():
    tokens = "患 者 头 痛".split()
    for n in range(1, 5):
        assert bleu_n(tokens, tokens, n) == pytest.approx(1.0, abs=1e-12)


def test_bleu_brevity_penalty_case():
    assert bleu_n("a b".split(), "a b c d".split(), 1) == pytest.approx(
        math.exp(-1), abs=1e-12
    )


def test_bleu_no_penalty_when_longer():
    # all candidate unigrams present, candidate longer than reference
    assert bleu_n("a b b".split(), "a b".split(), 1) == pytest.approx(2 / 3, abs=1e-12)


def test_bleu_clipping():
    # "a" appears 3 times in the candidate but once in the reference
    assert bleu_n("a a a".split(), "a b c".split(), 1) == pytest.approx(1 / 3, abs=1e-12)


def test_bleu_zero_overlap_order_vanishes():
    # unigrams overlap but no bigram does; epsilon keeps the score defined
    score = bleu_n("a c b d".split(), "a b c d".split(), 2)
    assert 0.0 < score < 1e-4


def test_bleu_empty_candidate_and_reference():
    assert bleu_n([], ["a"], 4) == 0.0
    assert bleu_n(["a"], [], 4) < 1e-8  # nothing to match, epsilon only


def test_bleu_matches_brute_force_fuzz():
    rng = random.Random(99)
    for _ in range(500):
        cand = rand_tokens(rng)
        ref = rand_tokens(rng)
        n = rng.randint(1, 4)
        assert bleu_n(cand, ref, n) == pytest.approx(
            brute_bleu(cand, ref, n), abs=1e-12
        )


def test_bleu_range_fuzz():
    rng = random.Random(100)
    for _ in range(200):
        score = bleu_n(rand_tokens(rng), rand_tokens(rng), rng.randint(1, 4))
        assert 0.0 <= score <= 1.0


# --- ROUGE ---------------------------------------------------------------------

def test_rouge_n_basics():
    assert rouge_n("a b c".split(), "a b d".split(), 1) == pytest.approx(
        100 * 2 / 3, abs=1e-9
    )
    assert rouge_n("a b".split(), "c d".split(), 1) == 0.0
    assert rouge_n([], ["a"], 1) == 0.0
    assert rouge_n(["a"], [], 1) == 0.0
    assert rouge_n("x y".split(), "x y".split(), 2) == 100.0


def test_rouge_l_known_case():
    assert rouge_l("a c e".split(), "a b c d e".split()) == pytest.approx(75.0, abs=1e-9)


def test_rouge_l_identity_and_empty():
    assert rouge_l("患 者".split(), "患 者".split()) == 100.0
    assert rouge_l([], []) == 0.0
    assert rouge_l(["a"], ["b"]) == 0.0


def test_rouge_matches_brute_force_fuzz():
    rng = random.Random(101)
    for _ in range(500):
        cand = rand_tokens(rng)
        ref = rand_tokens(rng)
        n = rng.randint(1, 2)
        assert rouge_n(cand, ref, n) == pytest.approx(
            brute_rouge_n(cand, ref, n), abs=1e-9
        )
        assert rouge_l(cand, ref) == pytest.approx(brute_rouge_l(cand, ref), abs=1e-9)
        assert 0.0 <= rouge_l(cand, ref) <= 100.0


# tokens as ``tokenize`` yields them: CJK characters (one astral) and
# Latin words
SCORING_VOCAB = ("患", "者", "高", "血", "压", "\U00020000", "HTN", "5mg", "pH", "a")


def scoring_pairs(rng, count):
    """Candidate/reference token lists: both or either side empty, lists
    shorter than 4, small vocabularies that repeat n-grams, and mixed
    scripts."""
    pairs = [([], []), ([], ["患"]), (["患"], [])]
    while len(pairs) < count:
        vocab = rng.sample(SCORING_VOCAB, rng.randint(1, len(SCORING_VOCAB)))

        def draw():
            length = rng.randint(0, 3) if rng.random() < 0.3 else rng.randint(4, 40)
            return [rng.choice(vocab) for _ in range(length)]

        pairs.append((draw(), draw()))
    return pairs


def test_shared_counts_equal_per_order_oracle_fuzz():
    pairs = scoring_pairs(random.Random(10), 600)
    shapes = {
        "both empty": any(not c and not r for c, r in pairs),
        "empty candidate": any(not c and r for c, r in pairs),
        "empty reference": any(c and not r for c, r in pairs),
        "short candidate": any(0 < len(c) < 4 for c, _ in pairs),
        "short reference": any(0 < len(r) < 4 for _, r in pairs),
        "repeated bigram": any(max(Counter(zip(c, c[1:])).values(), default=0) > 1
                               for c, _ in pairs),
        "mixed scripts": any({t.isascii() for t in c + r} == {True, False} for c, r in pairs),
        "candidate shorter": any(0 < len(c) < len(r) for c, r in pairs),
        "candidate longer": any(len(c) > len(r) > 0 for c, r in pairs),
    }
    assert all(shapes.values()), shapes
    for cand, ref in pairs:
        assert ngram_scores(cand, ref) == (
            *(per_order_bleu_n(cand, ref, n) for n in (1, 2, 3, 4)),
            per_order_rouge_n(cand, ref, 1), per_order_rouge_n(cand, ref, 2),
        ), (cand, ref)


def test_lcs_length_matches_dp_across_word_boundaries():
    # bit vectors of up to 300 bits span many machine words and Python's
    # 30-bit int digits, where a lost carry or an unmasked high bit shows
    rng = random.Random(64)
    edges = (0, 1, 63, 64, 65, 127, 128, 129, 300)
    lengths = [(la, lb) for la in edges for lb in edges]
    lengths += [(rng.randint(0, 300), rng.randint(0, 300)) for _ in range(40)]
    for la, lb in lengths:
        vocab = [f"t{i}" for i in range(rng.randint(1, 30))]
        a = [rng.choice(vocab) for _ in range(la)]
        b = [rng.choice(vocab) for _ in range(lb)]
        assert _lcs_length(a, b) == dp_lcs_length(a, b), (la, lb, len(vocab))


# --- seed quality ----------------------------------------------------------------

def test_seed_quality_known_case():
    p, r, f1 = seed_quality({"c", "d"}, {"c", "x", "y"})
    assert (p, r) == (0.5, pytest.approx(1 / 3))
    assert f1 == pytest.approx(0.4)


def test_seed_quality_edges():
    assert seed_quality(set(), {"a"}) == (0.0, 0.0, 0.0)
    assert seed_quality({"a"}, set()) == (0.0, 0.0, 0.0)
    assert seed_quality({"a"}, {"b"}) == (0.0, 0.0, 0.0)
    assert seed_quality({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)


# --- answer extraction --------------------------------------------------------------

LABELS = ("A", "B", "C", "D", "E")


def test_extract_tier1_phrases():
    assert extract_answer("经分析，所以答案是B。", LABELS) == "B"
    assert extract_answer("答案为（C）", LABELS) == "C"
    assert extract_answer("正确答案是A", LABELS) == "A"
    assert extract_answer("答案：B", LABELS) == "B"
    assert extract_answer("The answer is D.", LABELS) == "D"
    assert extract_answer("Answer: E", LABELS) == "E"
    assert extract_answer("the answer is b", LABELS) == "B"


def test_extract_tier1_conflict_is_unresolved():
    assert extract_answer("答案是A。但也有人说答案是B。", LABELS) is None


def test_extract_tier1_repeated_same_label_ok():
    assert extract_answer("答案是C。综上，答案是C。", LABELS) == "C"


def test_extract_tier2_lone_label_line():
    assert extract_answer("分析过程……\nB", LABELS) == "B"
    assert extract_answer("分析过程……\n（B）", LABELS) == "B"
    assert extract_answer("分析过程……\nB.", LABELS) == "B"


def test_extract_tier3_standalone_in_last_sentence():
    assert extract_answer("综合考虑，应选B", LABELS) == "B"
    assert extract_answer("需要做CT检查，所以选D", LABELS) == "D"


def test_extract_tier3_ambiguous_unresolved():
    assert extract_answer("既可能是A也可能是C", LABELS) is None


def test_extract_letters_inside_words_ignored():
    assert extract_answer("Consider the CT and MRI findings", LABELS) is None


def test_extract_nothing_found():
    assert extract_answer("无法判断。", LABELS) is None
    assert extract_answer("", LABELS) is None


def test_extract_respects_label_set():
    # F is not a valid label here
    assert extract_answer("答案是F", LABELS) is None
    assert extract_answer("答案是C", ("A", "B")) is None


def test_extract_requires_labels():
    with pytest.raises(ValueError):
        extract_answer("text", ())


# --- records ------------------------------------------------------------------------

def make_record(**overrides):
    base = dict(
        instance_id="q0",
        mode="cot",
        shots="zero",
        prompt_digest="d" * 64,
        response_text="回答",
        extracted_answer="A",
        gold_answer="A",
        correct=True,
        metadata={"discipline": "内科"},
    )
    base.update(overrides)
    return EvalRecord(**base)


def test_record_serialization_omits_inapplicable(tmp_path):
    qa = make_record(mode="standard_qa")
    d = record_to_dict(qa)
    assert "bleu_1" not in d and "rouge_l" not in d and "seed_f1" not in d
    assert d["extracted_answer"] == "A"

    unresolved = make_record(extracted_answer=None, correct=False)
    d2 = record_to_dict(unresolved)
    assert d2["extracted_answer"] is None
    assert d2["correct"] is False


def test_records_round_trip(tmp_path):
    records = [
        make_record(),
        make_record(instance_id="q1", extracted_answer=None, correct=False,
                    bleu_1=0.5, rouge_l=42.0, metadata={}),
        make_record(instance_id="q2", error="TransportError: nope",
                    response_text="", correct=False),
    ]
    path = tmp_path / "records.jsonl"
    save_records(records, str(path))
    assert load_records(str(path)) == records


def test_records_deterministic_bytes(tmp_path):
    records = [make_record(), make_record(instance_id="q1")]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_records(records, str(a))
    save_records(records, str(b))
    assert a.read_bytes() == b.read_bytes()


# --- report --------------------------------------------------------------------------

def sample_records():
    return [
        make_record(instance_id="q0", correct=True, rouge_l=80.0, bleu_4=0.5,
                    seed_f1=0.6, metadata={"discipline": "内科"}),
        make_record(instance_id="q1", correct=True, rouge_l=60.0, bleu_4=0.3,
                    seed_f1=0.2, metadata={"discipline": "内科"}),
        make_record(instance_id="q2", correct=False, extracted_answer=None,
                    rouge_l=40.0, bleu_4=0.1, metadata={}),
        make_record(instance_id="q3", correct=False, extracted_answer="B",
                    metadata={"discipline": "外科"}),
    ]


def test_report_counts_and_accuracy():
    report = build_report(sample_records(), group_by=("discipline",))
    assert report.total == 4
    assert report.correct == 2
    assert report.unresolved == 1
    assert report.accuracy_pct == 50.0
    assert report.mean_metrics["rouge_l"] == 60.0
    assert report.mean_metrics["bleu_4"] == 0.3
    assert report.mean_metrics["seed_f1"] == 0.4


def test_report_groups_cover_all_records():
    report = build_report(sample_records(), group_by=("discipline",))
    rows = report.groups["discipline"]
    assert set(rows) == {"内科", "外科", "unknown"}
    assert sum(row["count"] for row in rows.values()) == 4
    assert rows["内科"] == {
        "count": 2, "accuracy_pct": 100.0, "bleu_4": 0.4, "rouge_l": 70.0,
        "seed_f1": 0.4,
    }
    assert rows["unknown"]["count"] == 1
    # rows ordered by descending count
    assert list(rows) == ["内科", "unknown", "外科"] or list(rows)[0] == "内科"


def test_report_answer_split():
    report = build_report(sample_records())
    assert report.answer_split["correct"]["count"] == 2
    assert report.answer_split["incorrect"]["count"] == 2
    assert report.answer_split["correct"]["rouge_l"] == 70.0
    assert report.answer_split["incorrect"]["rouge_l"] == 40.0


def test_report_empty():
    report = build_report([])
    assert report.total == 0
    assert report.accuracy_pct is None
    assert report.mean_metrics == {}


def test_report_file_deterministic(tmp_path):
    report = build_report(sample_records(), group_by=("discipline",))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_report(report, str(a))
    save_report(report, str(b))
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text(encoding="utf-8"))
    assert parsed["accuracy_pct"] == 50.0


# --- run_eval -----------------------------------------------------------------------

from conftest import ENTITY_POOL


def replay_setup(tmp_path, mode="cot", shots="zero", count=4):
    test = synth_dataset(7, count)
    extractor = Lexicon(ENTITY_POOL)
    train = synth_dataset(8, 10)
    from seedqa.entities import annotate_stream

    graph = build_graph(annotate_stream(train, extractor))
    spec = PromptSpec(mode, shots)
    requests = pipeline_requests(
        test, spec, "gpt-3.5-turbo-0613",
        graph=graph, extractor=extractor,
    )
    responses = {}
    for i, inst in enumerate(test):
        if i % 2 == 0:
            responses[inst.id] = f"综合分析，答案是{inst.answer}。"
        else:
            responses[inst.id] = "难以判断。"
    fixture = write_replay_fixture(tmp_path / "fix.jsonl", requests, responses)
    client = ChatClient(ClientConfig(backend="replay", fixture_path=fixture))
    return test, graph, extractor, spec, client


def test_run_eval_cot_records(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "cot")
    records, report = run_eval(test, client, spec)
    assert len(records) == 4
    assert [r.instance_id for r in records] == [i.id for i in test]
    assert report.accuracy_pct == 50.0
    assert report.unresolved == 2
    for rec in records:
        assert rec.mode == "cot"
        assert rec.bleu_1 is not None and rec.rouge_l is not None
        assert rec.seed_count is None
        assert len(rec.prompt_digest) == 64
        assert rec.error is None


def test_run_eval_standard_qa_skips_analysis_metrics(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "standard_qa")
    records, _ = run_eval(test, client, spec)
    for rec in records:
        assert rec.bleu_1 is None and rec.rouge_l is None
        assert rec.response_tokens is None


def test_run_eval_icp_seed_metrics(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "icp")
    records, report = run_eval(
        test, client, spec, graph=graph, extractor=extractor, k=10
    )
    for rec in records:
        assert rec.seed_count is not None
        assert rec.seed_precision is not None
        assert 0.0 <= rec.seed_f1 <= 1.0
    assert "seed_f1" in report.mean_metrics


def test_run_eval_icp_requires_graph_and_extractor(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "icp")
    with pytest.raises(ValueError, match="graph"):
        run_eval(test, client, spec)
    with pytest.raises(ValueError, match="extractor"):
        run_eval(test, client, spec, graph=graph)
    with pytest.raises(ValueError, match="workers"):
        run_eval(test, client, spec, graph=graph, extractor=extractor, workers=0)


@pytest.mark.concurrency
def test_run_eval_worker_counts_agree(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "icp", count=8)
    seq_records, seq_report = run_eval(
        test, client, spec, graph=graph, extractor=extractor
    )
    par_records, par_report = run_eval(
        test, client, spec, graph=graph, extractor=extractor, workers=8
    )
    assert seq_records == par_records
    assert seq_report == par_report


@pytest.mark.concurrency
def test_run_eval_icp_cold_graph_worker_counts_agree(tmp_path):
    # each run gets a freshly loaded graph, so its workers rank the
    # sources on first use, possibly several at once
    test, graph, extractor, spec, client = replay_setup(tmp_path, "icp", count=12)
    path = tmp_path / "g.kg"
    save_graph(graph, str(path))
    seq_records, _ = run_eval(test, client, spec, graph=load_graph(str(path)),
                              extractor=extractor, workers=1)
    par_records, _ = run_eval(test, client, spec, graph=load_graph(str(path)),
                              extractor=extractor, workers=3)
    assert par_records == seq_records
    assert all(rec.error is None and rec.seed_count for rec in seq_records)


def test_run_eval_per_instance_failures_recorded(tmp_path):
    test, graph, extractor, spec, client = replay_setup(tmp_path, "cot", count=4)
    # a fixture missing one instance produces a recorded error, not an abort
    fixture_lines = Path(client.config.fixture_path).read_text(encoding="utf-8").splitlines()
    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(fixture_lines[1:]) + "\n", encoding="utf-8")
    client2 = ChatClient(ClientConfig(backend="replay", fixture_path=str(partial)))
    records, report = run_eval(test, client2, spec)
    assert len(records) == 4
    failed = [r for r in records if r.error]
    assert len(failed) == 1
    assert failed[0].instance_id == test[0].id
    assert failed[0].correct is False
    assert "ReplayMissError" in failed[0].error
    assert failed[0].error.endswith(f"no response for digest {failed[0].prompt_digest}")
    assert report.errors == 1


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 3])
def test_run_eval_records_extractor_failures(tmp_path, workers):
    # the extractor fails from its fifth call on; an instance whose
    # extraction fails becomes a failure record without a prompt digest
    test, graph, extractor, spec, client = replay_setup(tmp_path, "icp", count=6)
    calls = itertools.count(1)

    def flaky(text):
        if next(calls) >= 5:
            raise RuntimeError("extractor down")
        return extractor(text)

    records, report = run_eval(
        test, client, spec, graph=graph, extractor=flaky, workers=workers
    )
    assert [r.instance_id for r in records] == [i.id for i in test]
    ok = [r.error is None for r in records]
    if workers == 1:
        # two extractor calls per instance: the first two instances pass
        assert ok == [True, True, False, False, False, False]
    assert 1 <= sum(ok) <= 2
    assert report.errors == ok.count(False)
    for rec, passed in zip(records, ok):
        if passed:
            assert len(rec.prompt_digest) == 64
        else:
            assert rec.error == "RuntimeError: extractor down"
            assert rec.prompt_digest == "" and not rec.correct


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 3])
def test_run_eval_extractor_transport_failures_count_toward_limit(tmp_path, workers):
    test, graph, _, spec, client = replay_setup(tmp_path, "icp", count=6)

    def dead(text):
        raise TransportError("extraction endpoint down")

    with pytest.raises(ApiExhaustionError) as err:
        run_eval(test, client, spec, graph=graph, extractor=dead, workers=workers)
    records = err.value.records
    assert [r.instance_id for r in records] == [i.id for i in test][:5]
    assert all(r.error.startswith("TransportError") for r in records)
    assert all(r.prompt_digest == "" for r in records)


@pytest.mark.concurrency
def test_run_eval_transport_exhaustion_aborts(tmp_path):
    test, graph, extractor, spec, _ = replay_setup(tmp_path, "cot", count=8)

    def failing_transport(url, headers, payload, timeout):
        raise ConnectionError("network down")

    config = ClientConfig(backend="live", max_attempts=1, backoff_base=0.0)
    client = ChatClient(config, transport=failing_transport, sleeper=lambda s: None)
    with pytest.raises(ApiExhaustionError) as err:
        run_eval(test, client, spec)
    assert len(err.value.records) == 5
    assert all(r.error for r in err.value.records)


def counting_client(backend, cache_dir=None):
    """A client of ``backend`` whose transport answers every prompt, and the
    list of prompts the transport was called with."""
    prompts: list[str] = []

    def transport(url, headers, payload, timeout):
        prompts.append(payload["messages"][-1]["content"])
        return 200, json.dumps({"choices": [{"message": {"content": "答案是A。"}}]})

    config = ClientConfig(backend=backend, cache_dir=cache_dir)
    return ChatClient(config, transport=transport, sleeper=lambda s: None), prompts


@pytest.mark.parametrize("backend", ["replay", "cached-live", "live"])
def test_run_eval_hashes_each_request_once(tmp_path, monkeypatch, backend):
    # the record's prompt_digest and the fixture or cache key are one value
    test, _, _, spec, client = replay_setup(tmp_path, "cot")
    if backend != "replay":
        client, _ = counting_client(backend, str(tmp_path / "cache"))
    hashed = count_request_digests(monkeypatch)
    records, _ = run_eval(test, client, spec)
    assert [request_digest(req) for req in hashed] == [r.prompt_digest for r in records]
    assert all(r.error is None for r in records)


def test_cached_live_rerun_answers_every_request_from_the_cache(tmp_path):
    test, spec = synth_dataset(7, 5), PromptSpec("cot", "zero")
    cache_dir = tmp_path / "cache"
    client, prompts = counting_client("cached-live", str(cache_dir))
    first, first_report = run_eval(test, client, spec)
    assert len(prompts) == len(test)
    rerun_client, rerun_prompts = counting_client("cached-live", str(cache_dir))
    again, again_report = run_eval(test, rerun_client, spec)
    assert rerun_prompts == []
    assert again == first and again_report == first_report
    assert {r.prompt_digest for r in first} == {p.stem for p in cache_dir.glob("*.json")}


def live_setup(count, failing=(), max_attempts=1, delay=0.0):
    """A cot test set and a live client whose transport raises for the
    instance indices in ``failing`` and answers the rest; also returns the
    list of instance ids the transport was called for and a dict holding
    the peak number of concurrent transport calls."""
    test = synth_dataset(7, count)
    spec = PromptSpec("cot", "zero")
    requests = pipeline_requests(test, spec, "gpt-3.5-turbo-0613")
    id_of = {req.prompt: iid for iid, req in requests.items()}
    failing_ids = {test[i].id for i in failing}
    calls: list[str] = []
    concurrency = {"active": 0, "peak": 0}
    lock = threading.Lock()

    def transport(url, headers, payload, timeout):
        iid = id_of[payload["messages"][-1]["content"]]
        calls.append(iid)
        with lock:
            concurrency["active"] += 1
            concurrency["peak"] = max(concurrency["peak"], concurrency["active"])
        time.sleep(delay)
        with lock:
            concurrency["active"] -= 1
        if iid in failing_ids:
            raise ConnectionError("network down")
        return 200, json.dumps({"choices": [{"message": {"content": "答案是A。"}}]})

    config = ClientConfig(backend="live", max_attempts=max_attempts, backoff_base=0.0)
    client = ChatClient(config, transport=transport, sleeper=lambda s: None)
    return test, spec, client, calls, concurrency


def test_run_eval_non_string_reply_fails_one_instance():
    # "content": null fails its own instance; the run goes on and completes
    test = synth_dataset(7, 3)
    spec = PromptSpec("cot", "zero")
    null_prompt = pipeline_requests(test, spec, "gpt-3.5-turbo-0613")[test[1].id].prompt

    def transport(url, headers, payload, timeout):
        content = None if payload["messages"][-1]["content"] == null_prompt else "答案是A。"
        return 200, json.dumps({"choices": [{"message": {"content": content}}]})

    config = ClientConfig(backend="live", max_attempts=1)
    client = ChatClient(config, transport=transport, sleeper=lambda s: None)
    records, report = run_eval(test, client, spec)
    assert [r.instance_id for r in records] == [i.id for i in test]
    assert [r.error is None for r in records] == [True, False, True]
    assert records[1].error.startswith("ApiStatusError")
    assert records[1].extracted_answer is None and not records[1].correct
    assert report.errors == 1


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 2, 6])
def test_run_eval_exhaustion_is_deterministic_across_workers(workers):
    # a short switch interval makes thread interleavings vary between repeats
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            test, spec, client, _, _ = live_setup(6, failing=range(6))
            with pytest.raises(ApiExhaustionError) as err:
                run_eval(test, client, spec, workers=workers)
            assert [r.instance_id for r in err.value.records] == [i.id for i in test][:5]
            assert all("TransportError" in r.error for r in err.value.records)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 3, 8])
def test_run_eval_exhaustion_counts_failures_in_input_order(workers):
    # F F ok F F F F F ok ok: the success resets the count, so the run
    # aborts at index 7, the fifth failure in a row
    test, spec, client, _, _ = live_setup(10, failing=(0, 1, 3, 4, 5, 6, 7))
    with pytest.raises(ApiExhaustionError) as err:
        run_eval(test, client, spec, workers=workers)
    records = err.value.records
    assert [r.instance_id for r in records] == [i.id for i in test][:8]
    assert [r.error is None for r in records] == [False, False, True] + [False] * 5


@pytest.mark.concurrency
def test_run_eval_single_worker_stops_calling_at_abort():
    # with one worker no instance starts after the abort decision
    test, spec, client, calls, _ = live_setup(8, failing=range(8), max_attempts=2)
    with pytest.raises(ApiExhaustionError):
        run_eval(test, client, spec, workers=1)
    assert calls == [i.id for i in test[:5] for _ in range(2)]


@pytest.mark.concurrency
def test_run_eval_in_flight_requests_bounded_by_workers():
    test, spec, client, calls, concurrency = live_setup(6, delay=0.1)
    records, _ = run_eval(test, client, spec, workers=2)
    assert [r.instance_id for r in records] == [i.id for i in test]
    assert sorted(calls) == sorted(i.id for i in test)
    assert concurrency["peak"] == 2
