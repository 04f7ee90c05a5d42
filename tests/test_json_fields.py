"""The JSON field kinds in ``corpus``: the checker itself, and a differential
fuzz holding every record reader to the per-field checks it was written
with (``conftest.hand_*``)."""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import re

import pytest

from conftest import (
    hand_cache_get, hand_check_template, hand_parse_annotated, hand_parse_completion_body,
    hand_parse_eval_record, hand_parse_exemplar, hand_parse_extraction_exemplar,
    hand_parse_record, hand_parse_seed_record, hand_replay_adder,
)
from seedqa.client import _DiskCache, _parse_completion_body, _ReplayBackend
from seedqa.corpus import DatasetFormatError, json_field, load_dataset, read_jsonl
from seedqa.entities import load_extraction_exemplars, read_annotated
from seedqa.evaluation import EvalRecord, load_records, record_to_dict
from seedqa.prompts import PromptTemplate, default_template, load_exemplars
from seedqa.seeds import load_seed_records


def test_json_field_returns_value_default_or_raises():
    rec = {"s": "x", "n": None, "xs": ["a"], "o": {"k": "v"}, "b": True}
    assert json_field(rec, "s", "a string") == "x"
    assert json_field(rec, "n", "a string or null", "default") is None
    assert json_field(rec, "missing", "a string", "default") == "default"
    assert json_field(rec, "xs", "a list of strings") == ["a"]
    assert json_field(rec, "o", "an object of strings") == {"k": "v"}
    with pytest.raises(KeyError, match="missing"):
        json_field(rec, "missing", "a string")
    with pytest.raises(ValueError, match=r"^'b' must be a number, got True$"):
        json_field(rec, "b", "a number")
    with pytest.raises(ValueError, match=r"^'o' must be a list of strings, got \{'k': 'v'\}$"):
        json_field(rec, "o", "a list of strings")
    with pytest.raises(ValueError, match=r"^'s' must be a list of strings, got 'x'$"):
        json_field(rec, "s", "a list of strings")


ABSENT = object()

# every JSON shape the fuzz puts in a field: ABSENT deletes the key
SPREAD = (
    "x", "高血压", "A", "", 7, -3, 0, 2**70, True, False, 1.5, 10.0, None,
    ["a", "b"], [], [1, 2], [True, False], ["a", 1], [None], [["a"]],
    {"k": "v"}, {}, {"k": 1}, {"k": None}, {"k": True}, ABSENT,
)

_DATASET = {"id": "q1", "question": "高血压患者突发头痛", "options": {"A": "甲", "B": "乙"},
            "answer": "A", "analysis": "高血压可致脑出血。", "metadata": {"year": 2020}}
_DATASET_PATHS = ("id", "question", "options", ("options", "A"), ("options", "B"), "answer",
                  "analysis", "metadata", ("metadata", "year"))
_RECORD = record_to_dict(EvalRecord(
    "q1", "icp", "few", "d", "答案是A", "A", "A", True, {"discipline": "内科"}, None, 12,
    *[0.5] * 7, 3, 0.5, 0.25, 0.3,
))
_RESPONSE = {"text": "答案是A", "finish_reason": "stop", "prompt_tokens": 9,
             "response_tokens": 3}
_RESPONSE_PATHS = ("text", "finish_reason", "prompt_tokens", "response_tokens")


def _read_lines(reader):
    return lambda path: list(reader(path))


def _hand_lines(parse):
    return lambda path: read_jsonl(path, parse)


def _hand_fixture(path):
    responses: dict = {}
    read_jsonl(path, hand_replay_adder(responses))
    return responses


def _hand_seed_records(path):
    return {rec.instance_id: rec for rec in read_jsonl(path, hand_parse_seed_record)}


# kind -> (valid record, fuzzed paths, reader of a one-line file, the same
# reader built on the hand-written checks)
LINE_KINDS = {
    "dataset": (_DATASET, _DATASET_PATHS, _read_lines(load_dataset),
                _hand_lines(hand_parse_record)),
    "annotated": (_DATASET | {"qo_entities": ["高血压"], "r_entities": ["脑出血"]},
                  (*_DATASET_PATHS, "qo_entities", "r_entities"),
                  _read_lines(lambda path: read_annotated((path,), set())),
                  _hand_lines(hand_parse_annotated)),
    "exemplars": ({"question": "问", "options": {"A": "x", "B": "y"}, "answer": "B",
                   "analysis": "解", "seeds": ["p", "q"]},
                  ("question", "options", ("options", "A"), "answer", "analysis", "seeds"),
                  _read_lines(load_exemplars), _hand_lines(hand_parse_exemplar)),
    "extraction_exemplars": ({"text": "高血压", "entities": ["高血压"]}, ("text", "entities"),
                             load_extraction_exemplars,
                             _hand_lines(hand_parse_extraction_exemplar)),
    "seeds": ({"id": "q1", "query": ["a"], "seeds": ["b", "c"], "scores": [1, 2], "k": 10},
              ("id", "query", "seeds", "scores", "k"), load_seed_records, _hand_seed_records),
    "records": (_RECORD, (*_RECORD, ("metadata", "discipline")), load_records,
                _hand_lines(hand_parse_eval_record)),
    "fixture": (_RESPONSE | {"digest": "d1"}, ("digest", *_RESPONSE_PATHS),
                lambda path: _ReplayBackend(path)._responses, _hand_fixture),
}

_BODY = {"choices": [{"message": {"content": "答案是A"}, "finish_reason": "stop"}],
         "usage": {"prompt_tokens": 9, "completion_tokens": 3}}
_BODY_PATHS = ("choices", ("choices", 0), ("choices", 0, "message"),
               ("choices", 0, "message", "content"), ("choices", 0, "finish_reason"), "usage",
               ("usage", "prompt_tokens"), ("usage", "completion_tokens"))
_TEMPLATE = dataclasses.asdict(default_template())
_TEMPLATE_PATHS = (*_TEMPLATE, ("instructions", "cot"))


def _with(rec, changes):
    """A deep copy of ``rec`` with each ``path -> value`` change applied,
    longest path first, so a change to a container overrides any change
    inside it."""
    rec = copy.deepcopy(rec)
    for path, value in sorted(changes.items(), key=lambda c: -len(_path(c[0]))):
        *outer, last = _path(path)
        target = rec
        for step in outer:
            target = target[step]
        if value is ABSENT:
            del target[last]
        else:
            target[last] = copy.deepcopy(value)
    return rec


def _path(path):
    return path if isinstance(path, tuple) else (path,)


def _outcome(read, *args, typed_as_value=False):
    """("ok", result) or the exception chain as (type, message) pairs;
    with ``typed_as_value`` a check's TypeError counts as ValueError."""
    try:
        return "ok", read(*args)
    except Exception as exc:
        chain = []
        while exc is not None:
            kind = type(exc)
            if typed_as_value and kind is TypeError and re.match(r"'\w+' must be ", str(exc)):
                kind = ValueError
            chain.append((kind, str(exc)))
            exc = exc.__cause__
        return "refused", chain


def _cases(paths, rng, count):
    """Each path set to each spread value, then ``count`` records with a
    random third of the paths changed at once."""
    for path in paths:
        for value in SPREAD:
            yield {path: value}
    for _ in range(count):
        yield {p: rng.choice(SPREAD) for p in paths if rng.random() < 1 / 3}


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_line_readers_match_hand_written_checks_fuzz(tmp_path, kind):
    valid, paths, read, hand_read = LINE_KINDS[kind]
    rng = random.Random(f"fields-{kind}")
    path = tmp_path / f"{kind}.jsonl"
    refused = 0
    for case in _cases(paths, rng, 1000):
        rec = _with(valid, case)
        path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        new = _outcome(read, str(path))
        digest = rec.get("digest", "d1")
        if kind == "fixture" and type(digest) is not str:
            # a digest that is not a string is refused before the response
            assert new == ("refused", [
                (DatasetFormatError, f"{path}:1: 'digest' must be a string, got {digest!r}"),
                (ValueError, f"'digest' must be a string, got {digest!r}"),
            ]), case
        else:
            assert new == _outcome(hand_read, str(path), typed_as_value=kind == "fixture"), case
        refused += new[0] == "refused"
    assert 0 < refused < len(paths) * len(SPREAD) + 1000


def test_completion_body_and_cache_entry_match_hand_written_checks_fuzz(tmp_path):
    rng = random.Random("fields-body")
    for case in _cases(_BODY_PATHS, rng, 400):
        body = json.dumps(_with(_BODY, case), ensure_ascii=False)
        assert (_outcome(_parse_completion_body, body)
                == _outcome(hand_parse_completion_body, body, typed_as_value=True)), case

    cache = _DiskCache(str(tmp_path))
    entry = {"digest": "d1", "request": {}, "response": _RESPONSE}
    paths = ("response", *(("response", p) for p in _RESPONSE_PATHS))
    for case in _cases(paths, rng, 200):
        (tmp_path / "d1.json").write_text(json.dumps(_with(entry, case)), encoding="utf-8")
        assert cache.get("d1") == hand_cache_get(str(tmp_path / "d1.json")), case


def test_template_fields_match_hand_written_checks_fuzz():
    rng = random.Random("fields-template")
    for case in _cases(_TEMPLATE_PATHS, rng, 300):
        # of the constructor's arguments only system may be left out
        case = {p: v for p, v in case.items() if v is not ABSENT or p in ("system", _path(p))}
        kwargs = _with(_TEMPLATE, case)
        new = _outcome(lambda: dataclasses.asdict(PromptTemplate(**kwargs)))
        assert new == _outcome(hand_check_template, kwargs), case
