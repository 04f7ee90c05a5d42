from __future__ import annotations

import json
import random

import pytest

from seedqa.corpus import (
    Dataset,
    DatasetFormatError,
    Instance,
    load_dataset,
    qo_text,
    save_dataset,
    split_sample,
)

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


def test_load_reports_line_and_field(tmp_path):
    rec = {k: v for k, v in VALID.items() if k != "question"}
    path = write_jsonl(tmp_path / "d.jsonl", [VALID | {"id": "q0"}, rec])
    with pytest.raises(DatasetFormatError, match=r":2.*question"):
        load_dataset(path)


def test_load_rejects_answer_not_in_options(tmp_path):
    rec = VALID | {"answer": "F"}
    with pytest.raises(DatasetFormatError, match="q1"):
        load_dataset(write_jsonl(tmp_path / "d.jsonl", [rec]))


def test_load_rejects_duplicate_ids(tmp_path):
    with pytest.raises(DatasetFormatError, match="duplicate"):
        load_dataset(write_jsonl(tmp_path / "d.jsonl", [VALID, VALID]))


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
    save_dataset(ds, str(out))
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
