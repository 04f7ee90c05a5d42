from __future__ import annotations

import ast
import gc
import json
import os
import random
import re
import threading
import warnings
from pathlib import Path

import pytest

import seedqa.corpus as corpus_module
from seedqa.corpus import (
    Dataset,
    DatasetFormatError,
    Instance,
    json_object_line,
    load_dataset,
    lone_surrogate,
    map_in_order,
    qo_text,
    read_dataset,
    read_jsonl,
    read_lines,
    split_sample,
    write_whole,
)
from seedqa.evaluation import EvalRecord, build_report, save_records, save_report
from seedqa.graph import build_graph, save_graph
from seedqa.seeds import SeedRecord, SeedResult, save_seed_records

from conftest import DEEP_JSON, random_annotated, synth_dataset, write_dataset

VALID = {
    "id": "q1",
    "question": "最常见的表现是",
    "options": {"A": "甲", "B": "乙", "C": "丙", "D": "丁", "E": "戊"},
    "answer": "B",
    "analysis": "乙是典型表现，其余均少见。",
    "metadata": {"discipline": "内科"},
}


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return str(path)


def test_load_valid(tmp_path):
    ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [VALID]))
    assert len(ds) == 1
    inst = ds[0]
    assert inst.id == "q1"
    assert inst.answer == "B"
    assert inst.labels == ("A", "B", "C", "D", "E")
    assert inst.metadata == {"discipline": "内科"}


def test_load_normalizes_labels(tmp_path):
    rec = dict(VALID)
    rec["options"] = {"a": "甲", "ｂ": "乙", " c ": "丙", "D": "丁", "E": "戊"}
    rec["answer"] = "ｂ"
    ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [rec]))
    assert ds[0].labels == ("A", "B", "C", "D", "E")
    assert ds[0].answer == "B"


def test_load_rejects_labels_that_collide_after_normalization(tmp_path):
    rec = dict(VALID, id="q2")
    rec["options"] = {"A": "甲", "Ａ": "乙"}
    rec["answer"] = "A"
    path = write_jsonl(tmp_path / "d.jsonl", [VALID, rec])
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{path}:2: option labels collide after normalization")):
        load_dataset(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        json.dumps(VALID, ensure_ascii=False) + "\n\n  \n", encoding="utf-8"
    )
    assert len(load_dataset(str(path))) == 1


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "q1"\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r":1"):
        load_dataset(str(path))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_jsonl_refuses_non_standard_constants(tmp_path, constant):
    # Python's json module accepts these, but they are not JSON, and a value
    # read from one would be written back out as invalid JSON
    path = tmp_path / "r.jsonl"
    path.write_text(f'{{"x": 1.5}}\n{{"x": [{constant}]}}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{path}:2: invalid JSON ({constant} is not a JSON value)")):
        read_jsonl(str(path), dict)
    # the same word as a string is a string
    path.write_text(f'{{"x": "{constant}"}}\n', encoding="utf-8")
    assert read_jsonl(str(path), dict) == [{"x": constant}]


@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_jsonl_readers_refuse_a_number_too_large_for_a_float(tmp_path, number):
    # float() reads these as infinity, which a report would write back as a
    # bare Infinity, so a records file and a dataset both fail at the line
    from seedqa.evaluation import load_records

    message = f":2: invalid JSON (number {number} is out of range for a float)"
    records = tmp_path / "records.jsonl"
    save_records([EvalRecord(f"q{i}", "cot", "zero", "d", "答案是A", "A", "A", True)
                  for i in range(2)], str(records))
    first, second = records.read_text(encoding="utf-8").splitlines()
    records.write_text(f'{first}\n{second[:-1]}, "rouge_l": {number}}}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{records}{message}")):
        load_records(str(records))
    dataset = write_jsonl(tmp_path / "d.jsonl",
                          [VALID, VALID | {"id": "q2", "difficulty": 0.5}])
    text = Path(dataset).read_text(encoding="utf-8").replace("0.5", number)
    Path(dataset).write_text(text, encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{dataset}{message}")):
        load_dataset(dataset)
    # a large float that is finite still reads
    Path(dataset).write_text(text.replace(number, "1e300"), encoding="utf-8")
    assert len(load_dataset(dataset)) == 2


def test_json_object_line_reads_each_line_as_json_loads_does():
    # one shared decoder reads every line; each value and each reason is the
    # one json.loads with the same hooks gives, a leading byte order mark
    # included
    def per_call(line: str):
        try:
            rec = json.loads(line, parse_constant=corpus_module._refuse_constant,
                             parse_float=corpus_module._finite_float)
        except (RecursionError, ValueError) as exc:
            return f"invalid JSON ({exc})"
        return rec if isinstance(rec, dict) else "record is not a JSON object"

    def shared(line: str):
        try:
            return parse(line)
        except ValueError as exc:
            return str(exc)

    parse = json_object_line(lambda rec: rec)
    pieces = ['{"a": 1}', '{"a": [1.5, -2e3, true, null]}', '{"a": {"b": "\\u00e9"}}', "[1]",
              '"x"', "7", '{"a": NaN}', "Infinity", '{"a": -1e400}', '{"a": 1e300}',
              '{"a": ' + "9" * 5000 + "}", "\ufeff", "\ufeff ", " ", "\t", "\n", "x", "{", "}",
              ",", '{"a": 1 "b": 2}', DEEP_JSON]
    rng = random.Random(2626)
    for trial in range(400):
        line = "".join(rng.choices(pieces, k=rng.randint(1, 3)))
        assert shared(line) == per_call(line), f"trial {trial}: {line[:40]!r}"


def test_jsonl_readers_refuse_a_line_that_starts_with_a_byte_order_mark(tmp_path):
    # a file saved with a BOM fails at its first line; a BOM inside a line
    # is read as it always was
    text = json.dumps(VALID, ensure_ascii=False)
    path = tmp_path / "d.jsonl"
    path.write_text(f"\ufeff{text}\n", encoding="utf-8")
    message = (f"{path}:1: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
               f"line 1 column 1 (char 0))")
    with pytest.raises(DatasetFormatError, match=re.escape(message) + "$"):
        load_dataset(str(path))
    path.write_text(f'{{"x": 1}}\n{{"x": "\ufeff"}}\n \ufeff{{"x": 2}}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:3: invalid JSON (Expecting")):
        read_jsonl(str(path), dict)
    path.write_text(f'{{"x": 1}}\n{{"x": "\ufeff"}}\n', encoding="utf-8")
    assert read_jsonl(str(path), dict) == [{"x": 1}, {"x": "\ufeff"}]


@pytest.mark.parametrize("escape, lone", [
    (r"\ud800", "d800"), (r"\udfff", "dfff"), (r"x\ude00\ud83d", "de00"),
    (r"\ud83d\ud83d\ude00", "d83d"), (r"\\\ud800", "d800"), (r"\uDBFF", "dbff"),
], ids=["high", "low", "reversed-pair", "high-before-pair", "after-escaped-backslash",
        "upper-case"])
def test_jsonl_readers_refuse_an_unpaired_surrogate(tmp_path, escape, lone):
    # no UTF-8 file can hold one: a dataset that carried one loaded, and the
    # run failed at its first write, naming no file
    text = json.dumps(VALID, ensure_ascii=False)
    path = tmp_path / "d.jsonl"
    path.write_text(f"{text}\n{text.replace('最常见', escape)}\n", encoding="utf-8")
    message = f"{path}:2: unpaired surrogate \\u{lone} in a JSON string"
    with pytest.raises(DatasetFormatError, match=re.escape(message) + "$"):
        load_dataset(str(path))
    # a key is a string too
    path.write_text(f'{{"x{escape}": 1}}\n', encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:1: unpaired")):
        read_jsonl(str(path), dict)


def test_jsonl_readers_keep_escaped_pairs_and_other_escapes(tmp_path):
    # an escaped pair is one character; an escaped backslash before "ud800"
    # is text; and a file written with every non-ASCII character escaped
    # reads as the same records
    path = tmp_path / "r.jsonl"
    path.write_text('{"x": "\\ud83d\\ude00", "y": "\\\\ud800", "z": "\\u00e9"}\n',
                    encoding="utf-8")
    assert read_jsonl(str(path), dict) == [{"x": "\U0001f600", "y": "\\ud800", "z": "é"}]
    path.write_text(json.dumps(VALID) + "\n", encoding="utf-8")
    assert read_jsonl(str(path), dict) == [VALID]


def test_lone_surrogate_names_the_line_of_the_first():
    text = '{\n  "a": "\\u00e9",\n  "b": ["\\ud83d\\ude00", "\\udc00"],\n  "c": "\\ud800"\n}'
    assert lone_surrogate(text) == (3, "unpaired surrogate \\udc00 in a JSON string")
    assert lone_surrogate(text.replace("\\udc00", "\\u00e9")) == (
        4, "unpaired surrogate \\ud800 in a JSON string")
    assert lone_surrogate('"\\ud83d\\ude00"') is lone_surrogate(json.dumps(VALID)) is None


def test_load_reports_line_and_field(tmp_path):
    rec = {k: v for k, v in VALID.items() if k != "question"}
    path = write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": "q0"}, rec])
    with pytest.raises(DatasetFormatError, match=r":2.*question"):
        load_dataset(path)


def test_load_reads_integer_id_as_its_decimal_string(tmp_path):
    ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": 7}]))
    assert ds[0].id == "7"


@pytest.mark.parametrize("field, value", [
    ("id", None), ("id", True), ("id", 1.5), ("question", ["q"]), ("answer", 1),
    ("analysis", None), ("options", {"A": "甲", "B": 1}),
])
def test_load_refuses_non_string_text(tmp_path, field, value):
    # no str() coercion: '["q"]' or 'None' never becomes a question or analysis
    path = write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": "q0"}, VALID | {field: value}])
    with pytest.raises(DatasetFormatError, match=r"d\.jsonl:2: '\w+' must be a string"):
        load_dataset(path)


@pytest.mark.parametrize("metadata, expected", [
    ({"year": 2020, "discipline": "内科"}, {"year": "2020", "discipline": "内科"}),
    ({"year": -7}, {"year": "-7"}),
    ({}, {}),
    (None, {}),
], ids=["integer-value", "negative-integer", "empty", "null"])
def test_load_reads_metadata_strings_and_integers(tmp_path, metadata, expected):
    ds = load_dataset(write_jsonl(tmp_path / "d.jsonl", [VALID | {"metadata": metadata}]))
    assert ds[0].metadata == expected


@pytest.mark.parametrize("metadata, reason", [
    ({"year": 2020, "discipline": None}, "'discipline' must be a string or an integer"),
    ({"year": 1.5}, "'year' must be a string or an integer"),
    ({"year": True}, "'year' must be a string or an integer"),
    ({"year": ["2020"]}, "'year' must be a string or an integer"),
    ({"year": {"y": 1}}, "'year' must be a string or an integer"),
    ([], "field 'metadata' must be an object or null"),
    (0, "field 'metadata' must be an object or null"),
    ("", "field 'metadata' must be an object or null"),
    (False, "field 'metadata' must be an object or null"),
], ids=["null-value", "float-value", "bool-value", "list-value", "object-value",
        "list", "zero", "empty-string", "false"])
def test_load_refuses_mistyped_metadata(tmp_path, metadata, reason):
    # no str() coercion: a null value never becomes the group 'None'
    path = write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": "q0"}, VALID | {"metadata": metadata}])
    with pytest.raises(DatasetFormatError, match=rf"d\.jsonl:2: {re.escape(reason)}"):
        load_dataset(path)


def test_load_rejects_answer_not_in_options(tmp_path):
    rec = VALID | {"answer": "F"}
    with pytest.raises(DatasetFormatError, match="q1"):
        load_dataset(write_jsonl(tmp_path / "d.jsonl", [rec]))


def test_load_rejects_duplicate_ids(tmp_path):
    # the later line is named, as for every other defect of one line
    other = VALID | {"id": "other"}
    path = write_jsonl(tmp_path / "d.jsonl", [VALID, other, VALID])
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{path}:3: duplicate instance id {VALID['id']!r}")):
        load_dataset(path)
    # a Dataset built directly checks its ids too
    with pytest.raises(ValueError, match="duplicate instance id 'q1'"):
        Dataset((make_instance("q1"), make_instance("q1")))


def test_read_dataset_reads_lazily_and_checks_ids_against_the_callers_set(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": "other"}, VALID])
    seen: set[str] = set()
    records = read_dataset(path, seen)
    assert seen == set()  # nothing is read before the first record is asked for
    assert next(records).id == "other" and seen == {"other"}
    assert [inst.id for inst in records] == ["q1"] and seen == {"other", "q1"}
    assert tuple(read_dataset(path, set())) == load_dataset(path).instances
    # an id that the caller's set already holds is refused at its line
    with pytest.raises(DatasetFormatError,
                       match=re.escape(f"{path}:2: duplicate instance id {VALID['id']!r}")):
        list(read_dataset(path, {"q1"}))


def test_load_rejects_empty_texts(tmp_path):
    rec = VALID | {"analysis": "   "}
    with pytest.raises(DatasetFormatError, match="analysis"):
        load_dataset(write_jsonl(tmp_path / "d.jsonl", [rec]))


def test_load_rejects_bad_label(tmp_path):
    rec = VALID | {"options": {"A": "甲", "F": "乙"}, "answer": "A"}
    with pytest.raises(DatasetFormatError, match="F"):
        load_dataset(write_jsonl(tmp_path / "d.jsonl", [rec]))


def test_instance_rejects_unknown_answer():
    with pytest.raises(ValueError):
        Instance("x", "q", {"A": "a"}, "B", "why")


def test_round_trip(tmp_path):
    records = [VALID, VALID | {"id": "q2", "metadata": {}}]
    src = write_jsonl(tmp_path / "in.jsonl", records)
    ds = load_dataset(src)
    out = tmp_path / "out.jsonl"
    write_dataset(ds, out)
    assert load_dataset(str(out)) == ds
    # metadata key absent when empty
    second = out.read_text(encoding="utf-8").splitlines()[1]
    assert "metadata" not in json.loads(second)


def make_instance(iid, n_options=5, analysis_words=40, meta=None):
    labels = "ABCDE"[:n_options]
    return Instance(
        id=iid,
        question="问题",
        options={l: f"选项{l}" for l in labels},
        answer=labels[0],
        analysis="词" * analysis_words,
        metadata=meta or {},
    )


def test_split_sizes_partition_and_order():
    ds = Dataset(tuple(make_instance(f"q{i}") for i in range(20)))
    test, train = split_sample(ds, 6, rng_seed=3)
    assert len(test) == 6 and len(train) == 14
    assert {i.id for i in test} | {i.id for i in train} == {i.id for i in ds}
    assert {i.id for i in test} & {i.id for i in train} == set()
    order = [i.id for i in ds]
    assert [i.id for i in test] == sorted((i.id for i in test), key=order.index)
    assert [i.id for i in train] == sorted((i.id for i in train), key=order.index)


def test_split_deterministic_per_seed():
    ds = Dataset(tuple(make_instance(f"q{i}") for i in range(30)))
    first = [i.id for i in split_sample(ds, 10, rng_seed=42)[0]]
    second = [i.id for i in split_sample(ds, 10, rng_seed=42)[0]]
    other = [i.id for i in split_sample(ds, 10, rng_seed=43)[0]]
    assert first == second
    assert first != other


def test_split_bounds():
    ds = Dataset(tuple(make_instance(f"q{i}") for i in range(4)))
    with pytest.raises(ValueError):
        split_sample(ds, 5, 0)
    test, train = split_sample(ds, 0, 0)
    assert len(test) == 0 and len(train) == 4
    test, train = split_sample(ds, 4, 0)
    assert len(test) == 4 and len(train) == 0


def test_split_stratified_proportions():
    insts = []
    for i in range(12):
        insts.append(make_instance(f"a{i}", meta={"discipline": "内科"}))
    for i in range(6):
        insts.append(make_instance(f"b{i}", meta={"discipline": "外科"}))
    for i in range(2):
        insts.append(make_instance(f"c{i}"))  # no key: "unknown" bucket
    ds = Dataset(tuple(insts))
    test, _ = split_sample(ds, 10, rng_seed=5, stratify_by="discipline")
    by_group = {"a": 0, "b": 0, "c": 0}
    for inst in test:
        by_group[inst.id[0]] += 1
    # exact largest-remainder quotas: 12/20, 6/20, 2/20 of 10
    assert by_group == {"a": 6, "b": 3, "c": 1}


def test_split_stratified_deterministic_and_exact_size():
    rng = random.Random(9)
    insts = [
        make_instance(f"q{i}", meta={"g": rng.choice("xyz")}) for i in range(33)
    ]
    ds = Dataset(tuple(insts))
    for size in (0, 7, 13, 33):
        test1, train1 = split_sample(ds, size, 17, stratify_by="g")
        test2, _ = split_sample(ds, size, 17, stratify_by="g")
        assert len(test1) == size and len(train1) == 33 - size
        assert [i.id for i in test1] == [i.id for i in test2]


def test_qo_text_contains_question_and_options():
    inst = make_instance("q1", 3)
    text = qo_text(inst)
    assert text.startswith(inst.question)
    for option_text in inst.options.values():
        assert option_text in text


# --- map_in_order -------------------------------------------------------------

@pytest.fixture()
def started_threads(monkeypatch):
    """Every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_map_in_order_one_worker_runs_inline(started_threads):
    caller = threading.get_ident()
    calls = []

    def fn(x):
        calls.append(threading.get_ident())
        return 2 * x

    results = map_in_order(fn, range(6), 1)
    assert calls == []
    for k in range(1, 4):
        assert next(results) == 2 * (k - 1)
        assert len(calls) == k
    results.close()
    assert calls == [caller] * 3
    assert started_threads == []


def test_map_in_order_two_workers_start_a_pool(started_threads):
    assert list(map_in_order(lambda x: 2 * x, range(6), 2)) == [0, 2, 4, 6, 8, 10]
    assert started_threads


# --- write_whole --------------------------------------------------------------

def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_read_lines_yields_one_line_at_a_time_and_closes_when_stopped(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("a\n\nb\nc\n", encoding="utf-8")
    parsed = []

    def parse(line):
        parsed.append(line)
        return line.strip()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        closed = read_lines(str(path), parse)
        assert next(closed) == "a" and parsed == ["a\n"]
        assert next(closed) == "b" and parsed == ["a\n", "b\n"]
        closed.close()
        dropped = read_lines(str(path), parse)
        assert next(dropped) == "a"
        del dropped
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert list(read_lines(str(path), str.strip)) == ["a", "b", "c"]


def test_write_whole_writes_and_replaces(tmp_path):
    path = tmp_path / "out.txt"
    write_whole(str(path), ["首行\n", "", "second\n"])
    assert path.read_bytes() == "首行\nsecond\n".encode("utf-8")
    write_whole(str(path), iter(["new\n"]))
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_whole_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    write_whole(str(link), ["new\n"])
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


@pytest.mark.parametrize("mask", (0o022, 0o027, 0o077))
def test_write_whole_mode_matches_plain_open(tmp_path, mask):
    old = os.umask(mask)
    try:
        write_whole(str(tmp_path / "whole.txt"), ["x"])
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert _umask() == old
    modes = {os.stat(tmp_path / name).st_mode & 0o777 for name in ("whole.txt", "plain.txt")}
    assert modes == {0o666 & ~mask}


def test_write_whole_failure_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def chunks():
        yield "x" * (1 << 16)  # larger than the write buffer, so it reaches the disk
        raise RuntimeError("killed part-way")

    with pytest.raises(RuntimeError, match="killed part-way"):
        write_whole(str(path), chunks())
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    with pytest.raises(RuntimeError):
        write_whole(str(tmp_path / "new.txt"), chunks())
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_whole_into_missing_directory_names_the_path(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
        write_whole(str(path), ["x"])


def test_write_whole_failed_replace_removes_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_whole(str(path), ["new\n"])
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _save_cases():
    """Per saver: an old value, a new one, and how many ``json.dumps`` calls
    saving the new one makes."""
    dataset = synth_dataset(31, 40)
    records = [EvalRecord(inst.id, "cot", "zero", "d", "答案是A", "A", inst.answer,
                          inst.answer == "A", dict(inst.metadata)) for inst in dataset]
    seeds = [SeedRecord(inst.id, SeedResult((("高血压", 3), ("贫血", 5)), 10), ("发热",))
             for inst in dataset]
    train = random_annotated(random.Random(31), 40)
    return {
        "save_records": (save_records, records[:1], records, len(records)),
        "save_report": (save_report, build_report(records[:1]), build_report(records), 1),
        "save_seed_records": (save_seed_records, seeds[:1], seeds, len(seeds)),
        # the header, the node table, then the trailer, after every row is streamed
        "save_graph": (save_graph, build_graph(train[:1]), build_graph(train), 3),
    }


@pytest.mark.parametrize("saver",
                         ["save_records", "save_report", "save_seed_records", "save_graph"])
def test_save_failure_keeps_old_file(tmp_path, monkeypatch, saver):
    save, old_value, new_value, n_dumps = _save_cases()[saver]
    path = tmp_path / "out"
    save(old_value, str(path))
    old = path.read_bytes()
    dumps, calls = json.dumps, []

    def failing_dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) == n_dumps:
            raise RuntimeError("killed part-way")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="killed part-way"):
        save(new_value, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["out"]


SRC_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seedqa"


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` opens or creates a file to write: ``open``,
    ``io.open``, ``os.fdopen`` or ``Path.open`` with a mode that writes,
    appends or creates (a mode that is not a literal counts), ``os.open``
    with flags other than ``os.O_RDONLY``, ``Path.write_text`` or
    ``write_bytes``, or a ``tempfile`` file."""
    func = call.func
    if isinstance(func, ast.Name):
        owner, name = None, func.id
    elif isinstance(func, ast.Attribute):
        owner, name = ast.unparse(func.value), func.attr
    else:
        return False
    if name in ("write_text", "write_bytes", "mkstemp", "NamedTemporaryFile", "TemporaryFile"):
        return True
    if owner == "os" and name == "open":
        return ast.unparse(call.args[1]) != "os.O_RDONLY"
    if name not in ("open", "fdopen"):
        return False
    at = 1 if owner in (None, "io", "os") else 0  # Path.open takes the mode first
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def _write_sites(source: str, module: str) -> set[str]:
    """``module.qualname`` of every function in ``source`` that opens a
    file to write."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                sites.add(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_write_sites_detector():
    writes = ['open(p, "w")', 'open(p, mode="a", encoding="utf-8")', 'open(fd, "xb")',
              'io.open(p, "r+")', 'os.fdopen(fd, "w")', 'p.open("w")', "open(p, mode)",
              "os.open(p, os.O_WRONLY | os.O_CREAT)", 'p.write_text("x")',
              "tempfile.mkstemp()"]
    reads = ["open(p)", 'open(p, encoding="utf-8")', 'open(p, "rb")', "p.open()",
             "os.open(p, os.O_RDONLY)", "fh.write(x)"]
    for expr in writes:
        assert _write_sites(f"def f():\n    {expr}\n", "m") == {"m.f"}, expr
    for expr in reads:
        assert _write_sites(f"def f():\n    {expr}\n", "m") == set(), expr


def test_only_write_whole_and_the_cache_open_files_to_write():
    # every output goes through write_whole, the response cache included:
    # it passes mode 0o600 for its entries
    sites = set()
    for path in sorted(SRC_PACKAGE.glob("*.py")):
        sites |= _write_sites(path.read_text(encoding="utf-8"), path.stem)
    assert sites == {"corpus.write_whole"}
