from __future__ import annotations

import json
import random
import re
import tracemalloc
from collections import Counter

import pytest

import seedqa.entities as entities_module
from seedqa.client import ChatClient, ClientConfig, CompletionRequest, request_digest
from seedqa.corpus import Dataset, Instance
from seedqa.entities import (
    AnnotatedInstance,
    AnnotationError,
    EntityParseError,
    Lexicon,
    LlmExtractor,
    all_canonical,
    annotate_stream,
    build_extraction_prompt,
    extract_entities_lexicon,
    load_lexicon,
    normalize_entity,
    normalize_text,
    parse_entity_response,
    read_annotated,
    save_annotated,
)
from seedqa.corpus import DatasetFormatError

from conftest import (
    ENTITY_POOL, UNICODE_PALETTE, all_lengths_extract, count_request_digests,
    fixed_point_normalize_entity, line_by_line_load_lexicon, write_lexicon,
)


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


# whitespace of several kinds, compatibility and cased forms, the MHz sign,
# an astral letter that NFKC maps to ASCII, and a combining accent
_NORMALIZE_POOL = "AbＣ㎒ ①高血压ß℡x\t\u3000\u00a0𝐀e\u0301"


def test_normalize_matches_fixed_point_loop_fuzz():
    rng = random.Random(16)
    canonical_seen = 0
    for _ in range(2000):
        raw = "".join(rng.choice(_NORMALIZE_POOL) for _ in range(rng.randint(0, 10)))
        for text in (raw, normalize_text(raw).strip()):
            try:
                expected = fixed_point_normalize_entity(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    normalize_entity(text)
                assert str(got.value) == str(exc)
                continue
            assert normalize_entity(text) == expected
            canonical_seen += text == expected
    # both the one-pass return and the loop are exercised
    assert 200 < canonical_seen < 3000


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_entity("   ")


# --- lexicon ----------------------------------------------------------------

def test_lexicon_requires_entries():
    with pytest.raises(ValueError):
        Lexicon([])


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


@pytest.mark.parametrize("text, surface", [
    # one alias under two entries: neither the first nor the last wins
    ("高血压\tHTN\n糖尿病\thtn\n", "'htn'"),
    # an alias that is another canonical entry
    ("高血压\n糖尿病\t高血压\n", "'高血压'"),
], ids=["alias under two entries", "alias that is an entry"])
def test_load_lexicon_rejects_conflicting_aliases(tmp_path, text, surface):
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


def test_a_loaded_lexicon_keeps_each_entry_once(tmp_path):
    # the surface map holds every entry; ``entries`` is computed from it on
    # each read, so no set of the entries is kept beside it.  A kept
    # frozenset added about 105 bytes a term: 290 in all, against 185 here
    rng = random.Random(7)
    terms: set[str] = set()
    while len(terms) < 5000:
        terms.add("".join(chr(0x4E00 + rng.randrange(3000)) for _ in range(rng.randint(2, 6))))
    path = tmp_path / "lex.txt"
    path.write_text("".join(f"{term}\n" for term in sorted(terms)), encoding="utf-8")
    tracemalloc.start()
    try:
        lex = load_lexicon(str(path))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 240 * len(terms), kept / len(terms)
    assert lex.entries == terms and lex.entries is not lex.entries
    assert lex._surface_map == {term: term for term in terms}


def test_load_lexicon_refuses_a_byte_order_mark(tmp_path):
    # a file saved with a UTF-8 BOM would keep U+FEFF on its first entry,
    # and no text would match that entry
    path = tmp_path / "lex.txt"
    path.write_text("\ufeff高血压\n糖尿病\n", encoding="utf-8")
    where = f"{path}:1: line starts with a UTF-8 byte order mark (U+FEFF)"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(where)}$"):
        load_lexicon(str(path))
    # the mark is refused as a line's first character anywhere, as the
    # line-by-line reader refuses it
    path.write_text("# c\n高血压\n\ufeff糖尿病\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}:3: "):
        load_lexicon(str(path))
    # inside a line it is a character of the entry, as before
    path.write_text("高血压\n糖\ufeff尿病\n", encoding="utf-8")
    assert load_lexicon(str(path)).entries == {"高血压", "糖\ufeff尿病"}


def _palette_text(rng: random.Random, lo: int, hi: int) -> str:
    pool = (*UNICODE_PALETTE, *ENTITY_POOL[:3], "Aspirin", "htn", "a", " ", "\t", "\n")
    return "".join(rng.choice(pool) for _ in range(rng.randint(lo, hi)))


def test_all_canonical_never_accepts_what_normalize_entity_rejects():
    # lists drawn from characters that NFKC, casefolding or stripping
    # change, half of them normalized first so that the check also accepts:
    # the one pass over the joined list accepts only lists whose every
    # string normalize_entity returns unchanged
    rng = random.Random(3107)
    outcomes: Counter[str] = Counter()
    for trial in range(3000):
        strings = [_palette_text(rng, 0, 4) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            strings = [s if not s.strip() else normalize_entity(s) for s in strings]
            if rng.random() < 0.5:
                i = rng.randrange(len(strings))
                cut = rng.randint(0, len(strings[i]))
                strings[i] = strings[i][:cut] + rng.choice(UNICODE_PALETTE) + strings[i][cut:]
        each = []
        for s in strings:
            try:
                each.append(normalize_entity(s) == s)
            except ValueError:
                each.append(False)
        accepted = all_canonical(strings)
        assert all(each) or not accepted, (trial, strings)
        outcomes["accepted" if accepted else "rejected"] += 1
    assert outcomes["accepted"] >= 300 and outcomes["rejected"] >= 1500, outcomes


_LEXICON_TERMS = ("高血压", "糖尿病", "头痛", "Aspirin", "ASPIRIN", "HTN", "htn", "ß", "ss",
                  "ﬃ", "ffi", "İ", "i\u0307", "㎒", "mhz", "Ｃ#")


def _mutated_lexicon(rng: random.Random) -> bytes:
    """A lexicon file's bytes: lines of terms and aliases from a small pool,
    so aliases repeat and clash, edited with palette characters, blank and
    comment lines, blank alias fields, CR, CRLF and lone-CR line ends, a
    leading byte order mark or a byte that is not UTF-8."""
    lines = rng.sample(_LEXICON_TERMS, rng.randint(1, 6))
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0:  # a palette character anywhere in the line
            cut = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:cut] + rng.choice(UNICODE_PALETTE) + lines[i][cut:]
        elif op == 1:  # a repeat that agrees
            lines.insert(i, lines[i])
        elif op == 2:  # blank alias fields, as trailing tabs pad a table
            lines[i] += "\t" * rng.randint(1, 2) + rng.choice(("", " ", "\u3000", "\xa0"))
        elif op == 3:  # a blank or comment line, or one that only looks like either
            lines.insert(i, rng.choice(("", "  ", "\t", "\xa0", "\u2028", "# note", "  # note",
                                        "＃ note", "\u0085")))
        elif op == 4:  # padding around the entry
            lines[i] = rng.choice((" ", "\u3000", "\xa0")) + lines[i] + rng.choice(("", " "))
        elif op == 5:  # one more alias, which may be another entry's
            lines[i] += "\t" + rng.choice(_LEXICON_TERMS)
        else:  # a blank entry field before the aliases
            lines[i] = rng.choice(("", " ", "\u3000")) + "\t" + lines[i]
    end = rng.choice(("\n", "\r\n", "\r"))
    data = (end.join(lines) + rng.choice(("", end))).encode("utf-8")
    if rng.random() < 0.08:
        data = "\ufeff".encode("utf-8") + data
    if rng.random() < 0.05:
        cut = rng.randint(0, len(data))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def test_load_lexicon_matches_line_by_line_oracle_fuzz(tmp_path, monkeypatch):
    # the load gives the lexicon that reading the file a line at a time
    # gives, or the same error; only a file of one canonical entry per line
    # skips the line-by-line read, which names every defect
    re_reads: list[str] = []
    read_lines = entities_module.read_lines

    def counting_read_lines(path, parse):
        re_reads.append(path)
        return read_lines(path, parse)

    monkeypatch.setattr(entities_module, "read_lines", counting_read_lines)
    rng = random.Random(6271)
    outcomes: Counter[str] = Counter()
    path = str(tmp_path / "lex.txt")
    for trial in range(600):
        with open(path, "wb") as fh:
            fh.write(_mutated_lexicon(rng))
        re_reads.clear()
        try:
            expected = line_by_line_load_lexicon(path)
        except DatasetFormatError as exc:
            with pytest.raises(DatasetFormatError) as err:
                load_lexicon(path)
            assert str(err.value) == str(exc), f"trial {trial}"
            assert re_reads == [path], f"trial {trial}"
            outcomes[next(kind for kind in ("byte order mark", "UTF-8", "empty", "already")
                          if kind in str(exc))] += 1
            continue
        lex = load_lexicon(path)
        assert re_reads in ([], [path]), f"trial {trial}"
        assert lex.entries == expected.entries, f"trial {trial}"
        assert lex._surface_map == expected._surface_map, f"trial {trial}"
        assert lex._lengths == expected._lengths, f"trial {trial}"
        outcomes["loaded line by line" if re_reads else "loaded whole"] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 15, outcomes


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


def test_extract_via_alias(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path / "lex.txt", ["高血压\tHTN"]))
    assert extract_entities_lexicon("病史：htn多年", lex) == {"高血压"}


def test_extract_no_match():
    lex = Lexicon(["高血压"])
    assert extract_entities_lexicon("无异常发现", lex) == set()


def test_extractor_option_order_invariant():
    lex = Lexicon(["高血压", "糖尿病", "贫血"])
    base = dict(question="患者有高血压", answer="A", analysis="考虑糖尿病引起的贫血。")
    a = Instance(id="x", options={"A": "糖尿病", "B": "贫血"}, **base)
    b = Instance(id="x", options={"B": "贫血", "A": "糖尿病"}, **base)
    from seedqa.corpus import qo_text

    assert lex(qo_text(a)) == lex(qo_text(b)) == {"高血压", "糖尿病", "贫血"}


def test_lexicon_call_goes_through_the_module_function(monkeypatch):
    # a wrap of the module function, as the benchmark's spans install, sees
    # every extraction the lexicon makes
    import seedqa.entities

    calls = []

    def spy(text, lexicon):
        calls.append((text, lexicon))
        return extract_entities_lexicon(text, lexicon)

    lex = Lexicon(["高血压"])
    monkeypatch.setattr(seedqa.entities, "extract_entities_lexicon", spy)
    assert lex("患者有高血压") == {"高血压"}
    assert calls == [("患者有高血压", lex)]


def test_extract_surface_past_the_end_of_text():
    # "abcd" does not fit after "xab", where its prefix "ab" is a surface
    lex = Lexicon(["ab", "abcd", "c"])
    assert extract_entities_lexicon("xabc", lex) == {"ab", "c"}
    assert extract_entities_lexicon("xab", lex) == {"ab"}
    assert extract_entities_lexicon("xabcd", lex) == {"abcd"}
    assert extract_entities_lexicon("a", lex) == set()


def test_lexicon_indexes_lengths_by_first_character(tmp_path):
    lines = ["高血压", "高血压脑出血", "高烧\t𠀀x", "ab\tＡＢＣ"]
    lex = load_lexicon(write_lexicon(tmp_path / "lex.txt", lines))
    assert lex._lengths == {"高": [6, 3, 2], "a": [3, 2], "𠀀": [2]}


# surface material: nested CJK terms, letters that NFKC or casefold change
# (fullwidth, ß, the MHz sign, the fi ligature), astral characters, a
# combining accent, and spaces
_SURFACE_POOL = ("高", "血", "压", "脑", "a", "b", "Ａ", "ß", "ss", "㎒", "mhz", "ﬁ", "𠀀",
                 "😀", "e\u0301", "é", " ")


def _random_lexicon(rng: random.Random, path) -> Lexicon | None:
    def piece(lo, hi):
        return "".join(rng.choice(_SURFACE_POOL) for _ in range(rng.randint(lo, hi)))

    entries = [piece(1, 5) for _ in range(rng.randint(1, 8))]
    # prefixes and extensions of entries, so surfaces nest
    entries += [e[: rng.randint(1, len(e))] for e in rng.sample(entries, len(entries) // 2)]
    entries += [e + piece(1, 3) for e in rng.sample(entries, len(entries) // 2)]
    aliases = {piece(1, 4): rng.choice(entries) for _ in range(rng.randint(0, 4))}
    # each entry's line lists the aliases that target it
    lines = ["\t".join([e, *(a for a, t in aliases.items() if t == e)]) for e in entries]
    try:
        return load_lexicon(write_lexicon(path, lines))
    except DatasetFormatError:  # an empty entry or an alias that clashes
        return None


def test_extract_matches_all_lengths_scan_fuzz(tmp_path):
    rng = random.Random(1975)
    checked = matched = 0
    while checked < 600:
        lex = _random_lexicon(rng, tmp_path / "lex.txt")
        if lex is None:
            continue
        surfaces = sorted(lex._surface_map)
        for _ in range(5):
            parts = []
            for _ in range(rng.randint(0, 6)):
                if rng.random() < 0.5:
                    surface = rng.choice(surfaces)
                    parts.append(surface.upper() if rng.random() < 0.3 else surface)
                else:
                    parts.append(rng.choice(_SURFACE_POOL))
            if rng.random() < 0.5:
                # end inside a surface: a proper prefix of the longest one
                surface = max(surfaces, key=len)
                parts.append(surface[: rng.randint(0, len(surface) - 1)])
            text = "".join(parts)
            expected = all_lengths_extract(text, lex)
            assert extract_entities_lexicon(text, lex) == expected, (text, surfaces)
            checked += 1
            matched += bool(expected)
    assert matched > 300


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


def test_llm_extractor_hashes_each_request_once(tmp_path, monkeypatch):
    prompts = {build_extraction_prompt(text, EXEMPLARS): "头痛" for text in ("头痛", "呕吐")}
    client = replay_client_for(tmp_path, prompts)
    hashed = count_request_digests(monkeypatch)
    extractor = LlmExtractor(client, EXEMPLARS)
    assert extractor("头痛") == extractor("呕吐") == {"头痛"}
    assert [req.prompt for req in hashed] == list(prompts)


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
    annotated = list(annotate_stream(make_dataset(), lex))
    assert [a.base.id for a in annotated] == ["q0", "q1"]
    assert annotated[0].qo_entities == {"高血压", "糖尿病"}
    assert annotated[0].r_entities == {"高血压"}
    assert annotated[1].r_entities == {"缺铁性贫血"}


def test_annotate_without_analysis_side():
    lex = Lexicon(["高血压", "糖尿病"])
    annotated = list(annotate_stream(make_dataset(), lex, include_analysis=False))
    assert all(a.r_entities == frozenset() for a in annotated)
    assert annotated[0].qo_entities


def test_annotate_error_policies():
    boom = RuntimeError("boom")

    def failing(text):
        if "贫血" in text:
            raise boom
        return {"x"}

    with pytest.raises(AnnotationError) as err:
        list(annotate_stream(make_dataset(), failing))
    assert err.value.instance_id == "q1"
    assert err.value.cause is boom

    kept = list(annotate_stream(make_dataset(), failing, on_error="skip"))
    assert [a.base.id for a in kept] == ["q0"]

    with pytest.raises(ValueError):
        annotate_stream(make_dataset(), failing, on_error="ignore")
    with pytest.raises(ValueError, match="workers must be >= 1"):
        annotate_stream(make_dataset(), failing, workers=0)


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
        list(annotate_stream(dataset, failing, workers=workers))
    assert err.value.instance_id == "q0"
    assert 1 <= len(calls) <= workers


@pytest.mark.concurrency
def test_annotate_workers_match_sequential():
    lex = Lexicon(["高血压", "贫血", "糖尿病"])
    seq = list(annotate_stream(make_dataset(), lex, workers=1))
    par = list(annotate_stream(make_dataset(), lex, workers=4))
    assert seq == par


@pytest.mark.concurrency
@pytest.mark.parametrize("workers", [1, 4])
def test_annotate_stream_takes_a_generator_of_instances(workers):
    # the CLI passes the records as it reads them, with no Dataset
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    streamed = list(annotate_stream((inst for inst in make_dataset()), lex, workers=workers))
    assert streamed == list(annotate_stream(make_dataset(), lex))


def test_annotated_file_round_trip(tmp_path):
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    annotated = list(annotate_stream(make_dataset(), lex))
    path = tmp_path / "ann.jsonl"
    save_annotated(annotated, str(path))
    again = list(read_annotated((str(path),), set()))
    assert again == annotated
    # entity lists are sorted, so a rewrite is byte-identical
    second = tmp_path / "ann2.jsonl"
    save_annotated(again, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_save_annotated_failure_keeps_old_file(tmp_path, monkeypatch):
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    annotated = list(annotate_stream(make_dataset(), lex)) * 2000
    path = tmp_path / "ann.jsonl"
    save_annotated(annotated[:1], str(path))
    old = path.read_bytes()
    dumps, calls = json.dumps, []

    def failing_dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) == len(annotated) - 1:
            raise RuntimeError("killed part-way")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="killed part-way"):
        save_annotated(annotated, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl"]
    assert list(read_annotated((str(path),), set())) == annotated[:1]


def test_annotated_rejects_non_canonical_entities():
    inst = make_dataset()[0]
    with pytest.raises(ValueError):
        AnnotatedInstance(inst, frozenset({"ASPIRIN"}), frozenset())


def test_annotated_names_the_first_non_canonical_entity_when_it_is_the_last(tmp_path):
    # one normalization pass checks both sides; when it fails, the entities
    # are checked one by one, question side first, to name the bad one
    from seedqa.corpus import DatasetFormatError, instance_to_record

    inst = make_dataset()[0]
    with pytest.raises(ValueError, match=r"^entity not in canonical form: 'ASPIRIN'$"):
        AnnotatedInstance(inst, frozenset({"高血压", "头痛"}), frozenset({"发热", "ASPIRIN"}))
    with pytest.raises(ValueError, match=r"^entity not in canonical form: 'FEVER'$"):
        AnnotatedInstance(inst, frozenset({"FEVER"}), frozenset({"ASPIRIN"}))
    rec = instance_to_record(inst) | {"qo_entities": ["高血压"],
                                      "r_entities": ["发热", "头痛", "ASPIRIN"]}
    path = tmp_path / "ann.jsonl"
    path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{path}:1: entity not in canonical form: 'ASPIRIN'")):
        list(read_annotated((str(path),), set()))


def test_load_annotated_requires_entity_fields(tmp_path):
    from seedqa.corpus import DatasetFormatError, instance_to_record

    rec = instance_to_record(make_dataset()[0])
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="qo_entities"):
        list(read_annotated((str(path),), set()))


def test_load_annotated_refuses_a_repeated_instance_id(tmp_path):
    # a repeat would be mined, or counted into a graph, twice
    lex = Lexicon(["高血压", "贫血", "糖尿病", "缺铁性贫血"])
    annotated = list(annotate_stream(make_dataset(), lex))
    path = tmp_path / "ann.jsonl"
    save_annotated([*annotated, annotated[0]], str(path))
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:3: duplicate instance id 'q0'")):
        list(read_annotated((str(path),), set()))
