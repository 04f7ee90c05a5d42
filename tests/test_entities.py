from __future__ import annotations

import json
import random
import re

import pytest

from seedqa.client import ChatClient, ClientConfig, CompletionRequest, request_digest
from seedqa.corpus import Dataset, Instance
from seedqa.entities import (
    AnnotatedInstance,
    AnnotationError,
    EntityParseError,
    Lexicon,
    LexiconExtractor,
    LlmExtractor,
    annotate_dataset,
    build_extraction_prompt,
    extract_entities_lexicon,
    load_annotated,
    load_lexicon,
    normalize_entity,
    parse_entity_response,
    save_annotated,
)
from seedqa.corpus import DatasetFormatError


# --- normalization ---------------------------------------------------------

def test_normalize_basic():
    assert normalize_entity("  Aspirin ") == "aspirin"
    assert normalize_entity("ＡＳＰＩＲＩＮ") == "aspirin"
    assert normalize_entity("高血压") == "高血压"


def test_normalize_compatibility_forms():
    # the MHz sign decomposes into cased letters, which need a second fold
    assert normalize_entity("㎒") == "mhz"


def test_normalize_idempotent_fuzz():
    rng = random.Random(3)
    pool = "AbＣ㎒ ①高血压ß℡x"
    for _ in range(300):
        raw = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        try:
            once = normalize_entity(raw)
        except ValueError:
            continue
        assert normalize_entity(once) == once


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_entity("   ")


# --- lexicon ----------------------------------------------------------------

def test_lexicon_requires_entries():
    with pytest.raises(ValueError):
        Lexicon([])


def test_lexicon_alias_must_target_entry():
    with pytest.raises(ValueError, match="unknown"):
        Lexicon(["高血压"], {"HTN": "糖尿病"})


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text(
        "# comment line\n高血压\tHTN\t高血压病\n阿司匹林\n\n糖尿病\n",
        encoding="utf-8",
    )
    lex = load_lexicon(str(path))
    assert lex.entries == {"高血压", "阿司匹林", "糖尿病"}
    # every entry maps to itself; 高血压病 (a third field) and nothing else
    # besides HTN is an alias
    assert lex._surface_map == {"高血压": "高血压", "阿司匹林": "阿司匹林", "糖尿病": "糖尿病",
                                "htn": "高血压", "高血压病": "高血压"}


@pytest.mark.parametrize("text, where, surface", [
    # an alias repeated under a different canonical entry
    ("高血压\tHTN\n糖尿病\tHTN\n", ":2", "'htn'"),
    # an alias that collides with an earlier or a later canonical entry
    ("高血压\n糖尿病\t高血压\n", ":2", "'高血压'"),
    ("高血压\tHTN\n# c\nhtn\n", ":3", "'htn'"),
    # an entry field that is empty
    ("高血压\n\tHTN\n", ":2", "empty"),
    ("# comment only\n\n", "", "no entries"),
])
def test_load_lexicon_errors_name_path_and_line(tmp_path, text, where, surface):
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError) as err:
        load_lexicon(str(path))
    assert str(err.value).startswith(f"{path}{where}: ")
    assert surface in str(err.value)


@pytest.mark.parametrize("entries, aliases, text, surface", [
    # one alias under two entries: neither the first nor the last wins
    (["高血压", "糖尿病"], {"HTN": "高血压", "htn": "糖尿病"}, "高血压\tHTN\n糖尿病\thtn\n", "'htn'"),
    # an alias that is another canonical entry
    (["高血压", "糖尿病"], {"高血压": "糖尿病"}, "高血压\n糖尿病\t高血压\n", "'高血压'"),
], ids=["alias under two entries", "alias that is an entry"])
def test_lexicon_and_load_lexicon_reject_the_same_conflicts(tmp_path, entries, aliases, text,
                                                           surface):
    with pytest.raises(ValueError, match=surface):
        Lexicon(entries, aliases)
    path = tmp_path / "lex.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}:2: {surface}"):
        load_lexicon(str(path))


def test_load_lexicon_accepts_repeats_that_agree(tmp_path):
    # a repeated line, an alias equal to its own entry, and blank alias
    # fields (trailing tabs of a padded table) are not conflicts
    path = tmp_path / "lex.txt"
    path.write_text("高血压\tHTN\t\n高血压\tHTN\nAspirin\tASPIRIN\t\t\n", encoding="utf-8")
    lex = load_lexicon(str(path))
    assert lex.entries == {"高血压", "aspirin"}
    # ASPIRIN normalizes to its own entry, so it is not listed as an alias
    assert lex._surface_map == {"高血压": "高血压", "aspirin": "aspirin", "htn": "高血压"}


def test_extract_longest_match_wins():
    lex = Lexicon(["高血压", "高血压脑出血"])
    assert extract_entities_lexicon("患者确诊高血压脑出血", lex) == {"高血压脑出血"}


def test_extract_advances_past_match():
    # after matching "高血压" the scan resumes at "脑", so the overlapping
    # "压脑" never fires
    lex = Lexicon(["高血压", "压脑", "脑出血"])
    assert extract_entities_lexicon("高血压脑出血", lex) == {"高血压", "脑出血"}


def test_extract_dedupes_and_casefolds():
    lex = Lexicon(["aspirin", "高血压"])
    found = extract_entities_lexicon("服用ASPIRIN后，Aspirin缓解了高血压", lex)
    assert found == {"aspirin", "高血压"}


def test_extract_via_alias():
    lex = Lexicon(["高血压"], {"HTN": "高血压"})
    assert extract_entities_lexicon("病史：htn多年", lex) == {"高血压"}


def test_extract_no_match():
    lex = Lexicon(["高血压"])
    assert extract_entities_lexicon("无异常发现", lex) == set()


def test_extractor_option_order_invariant():
    lex = Lexicon(["高血压", "糖尿病", "贫血"])
    base = dict(question="患者有高血压", answer="A", analysis="考虑糖尿病引起的贫血。")
    a = Instance(id="x", options={"A": "糖尿病", "B": "贫血"}, **base)
    b = Instance(id="x", options={"B": "贫血", "A": "糖尿病"}, **base)
    ext = LexiconExtractor(lex)
    from seedqa.corpus import qo_text

    assert ext(qo_text(a)) == ext(qo_text(b)) == {"高血压", "糖尿病", "贫血"}


# --- extraction response parsing --------------------------------------------

def test_parse_delimited_line():
    assert parse_entity_response("高血压、糖尿病、贫血") == {"高血压", "糖尿病", "贫血"}
    assert parse_entity_response("aspirin, warfarin") == {"aspirin", "warfarin"}


def test_parse_labeled_line():
    assert parse_entity_response("entities: 高血压、贫血") == {"高血压", "贫血"}
    assert parse_entity_response("实体：高血压") == {"高血压"}


def test_parse_single_entity():
    assert parse_entity_response("高血压") == {"高血压"}


def test_parse_no_entity_markers():
    assert parse_entity_response("none") == set()
    assert parse_entity_response("无。") == set()
    assert parse_entity_response("No entities found") == set()
    assert parse_entity_response("entities: none") == set()


def test_parse_preamble_then_list():
    raw = "好的，以下是文本中的医学实体\n高血压、脑出血"
    assert parse_entity_response(raw) == {"高血压", "脑出血"}


def test_parse_normalizes_members():
    assert parse_entity_response("ASPIRIN、 高血压 ") == {"aspirin", "高血压"}


def test_parse_failure_keeps_raw():
    raw = "第一行无关内容\n第二行也无关"
    with pytest.raises(EntityParseError) as err:
        parse_entity_response(raw)
    assert err.value.raw == raw
    with pytest.raises(EntityParseError):
        parse_entity_response("   ")


# --- LLM-backed extraction ---------------------------------------------------

EXEMPLARS = [("患者发热三天。", ("发热",)), ("天气很好。", ())]


def test_build_extraction_prompt_shape():
    prompt = build_extraction_prompt("头痛伴呕吐", EXEMPLARS)
    assert prompt.endswith("text: 头痛伴呕吐\nentities:")
    assert "entities: 发热" in prompt
    assert "entities: none" in prompt
    assert prompt.index("Extract the medical entities") == 0


def replay_client_for(tmp_path, prompt_to_text: dict[str, str], model="gpt-3.5-turbo-0613"):
    fixture = tmp_path / "fixture.jsonl"
    with open(fixture, "w", encoding="utf-8") as fh:
        for prompt, text in prompt_to_text.items():
            digest = request_digest(
                CompletionRequest(model=model, prompt=prompt, temperature=0.0, max_tokens=256)
            )
            fh.write(json.dumps({"digest": digest, "text": text}, ensure_ascii=False) + "\n")
    return ChatClient(ClientConfig(backend="replay", fixture_path=str(fixture)))


def test_llm_extractor_parses_and_normalizes(tmp_path):
    prompt = build_extraction_prompt("头痛伴呕吐", EXEMPLARS)
    client = replay_client_for(tmp_path, {prompt: "头痛、呕吐、ASPIRIN"})
    extractor = LlmExtractor(client, EXEMPLARS)
    assert extractor("头痛伴呕吐") == {"头痛", "呕吐", "aspirin"}


def test_llm_extractor_requires_exemplars(tmp_path):
    client = replay_client_for(tmp_path, {})
    with pytest.raises(ValueError):
        LlmExtractor(client, [])


def test_llm_extractor_identical_inputs_single_upstream_call(tmp_path):
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload["messages"][0]["content"])
        return 200, json.dumps(
            {"choices": [{"message": {"content": "头痛"}, "finish_reason": "stop"}]}
        )

    config = ClientConfig(backend="cached-live", cache_dir=str(tmp_path / "cache"))
    client = ChatClient(config, transport=transport)
    extractor = LlmExtractor(client, EXEMPLARS)
    first = extractor("头痛伴呕吐")
    second = extractor("头痛伴呕吐")
    assert first == second == {"头痛"}
    assert len(calls) == 1


# --- dataset annotation -------------------------------------------------------

def make_dataset():
    insts = []
    for i, (q, analysis) in enumerate(
        [("患者高血压发作", "考虑高血压。"), ("出现贫血貌", "缺铁性贫血可能。")]
    ):
        insts.append(
            Instance(
                id=f"q{i}",
                question=q,
                options={"A": "糖尿病", "B": "其他"},
                answer="A",
                analysis=analysis,
            )
        )
    return Dataset(tuple(insts))


def test_annotate_dataset_order_and_sides():
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    annotated = annotate_dataset(make_dataset(), LexiconExtractor(lex))
    assert [a.base.id for a in annotated] == ["q0", "q1"]
    assert annotated[0].qo_entities == {"高血压", "糖尿病"}
    assert annotated[0].r_entities == {"高血压"}
    assert annotated[1].r_entities == {"缺铁性贫血"}


def test_annotate_without_analysis_side():
    lex = Lexicon(["高血压", "糖尿病"])
    annotated = annotate_dataset(make_dataset(), LexiconExtractor(lex), include_analysis=False)
    assert all(a.r_entities == frozenset() for a in annotated)
    assert annotated[0].qo_entities


def test_annotate_error_policies():
    boom = RuntimeError("boom")

    def failing(text):
        if "贫血" in text:
            raise boom
        return {"x"}

    with pytest.raises(AnnotationError) as err:
        annotate_dataset(make_dataset(), failing)
    assert err.value.instance_id == "q1"
    assert err.value.cause is boom

    kept = annotate_dataset(make_dataset(), failing, on_error="skip")
    assert [a.base.id for a in kept] == ["q0"]

    with pytest.raises(ValueError):
        annotate_dataset(make_dataset(), failing, on_error="ignore")


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 4])
def test_annotate_raise_stops_at_first_failure(workers):
    # "raise" takes results in input order and submits nothing after the
    # first failure, so only the first window of instances ever starts
    dataset = Dataset(tuple(
        Instance(id=f"q{i}", question="患者高血压", options={"A": "甲"}, answer="A",
                 analysis="考虑高血压。")
        for i in range(10)
    ))
    calls = []

    def failing(text):
        calls.append(text)
        raise RuntimeError("extractor down")

    with pytest.raises(AnnotationError) as err:
        annotate_dataset(dataset, failing, workers=workers)
    assert err.value.instance_id == "q0"
    assert 1 <= len(calls) <= workers


@pytest.mark.concurrency
def test_annotate_workers_match_sequential():
    lex = Lexicon(["高血压", "贫血", "糖尿病"])
    seq = annotate_dataset(make_dataset(), LexiconExtractor(lex), workers=1)
    par = annotate_dataset(make_dataset(), LexiconExtractor(lex), workers=4)
    assert seq == par


def test_annotated_file_round_trip(tmp_path):
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    annotated = annotate_dataset(make_dataset(), LexiconExtractor(lex))
    path = tmp_path / "ann.jsonl"
    save_annotated(annotated, str(path))
    again = load_annotated(str(path))
    assert again == annotated
    # entity lists are sorted, so a rewrite is byte-identical
    second = tmp_path / "ann2.jsonl"
    save_annotated(again, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_annotated_rejects_non_canonical_entities():
    inst = make_dataset()[0]
    with pytest.raises(ValueError):
        AnnotatedInstance(inst, frozenset({"ASPIRIN"}), frozenset())


def test_load_annotated_requires_entity_fields(tmp_path):
    from seedqa.corpus import DatasetFormatError, instance_to_record

    rec = instance_to_record(make_dataset()[0])
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="qo_entities"):
        load_annotated(str(path))
