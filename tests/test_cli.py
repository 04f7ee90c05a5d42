from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import random
import re
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from seedqa import __version__
from seedqa.cli import build_parser, main
from seedqa.corpus import (
    DatasetFormatError,
    data_path,
    instance_to_record,
    load_dataset,
    split_sample,
)
from seedqa.entities import (
    annotate_stream,
    build_extraction_prompt,
    load_extraction_exemplars,
    load_lexicon,
    read_annotated,
)
from seedqa.client import ClientConfig, CompletionRequest, TransportError, request_digest
from seedqa.evaluation import EvalRecord, record_to_dict
from seedqa.graph import build_graph, load_graph
from seedqa.prompts import PromptSpec, load_exemplars
from seedqa.seeds import load_seed_records

from conftest import (
    DEEP_JSON, pipeline_requests, synth_dataset, write_dataset, write_lexicon,
    write_replay_fixture,
)


@pytest.fixture()
def corpus(tmp_path):
    """Train and test datasets on disk plus a lexicon file."""
    train = synth_dataset(21, 10, prefix="tr")
    test = synth_dataset(22, 4, prefix="te")
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    write_dataset(train, train_path)
    write_dataset(test, test_path)
    lexicon_path = write_lexicon(tmp_path / "lexicon.txt")
    return {
        "dir": tmp_path,
        "train": str(train_path),
        "test": str(test_path),
        "lexicon": lexicon_path,
    }


def pipeline_to_graph(corpus):
    """Run annotate + build-graph through the CLI; returns file paths."""
    ann_path = corpus["dir"] / "train.ann.jsonl"
    assert main([
        "annotate",
        "--dataset", corpus["train"],
        "--lexicon", corpus["lexicon"],
        "--out", str(ann_path),
    ]) == 0
    graph_path = corpus["dir"] / "graph.kg"
    assert main([
        "build-graph",
        "--annotated", str(ann_path),
        "--out", str(graph_path),
    ]) == 0
    return str(ann_path), str(graph_path)


def prepare_replay(corpus, graph_path, mode="icp", shots="zero"):
    test = load_dataset(corpus["test"])
    graph = load_graph(graph_path)
    extractor = load_lexicon(corpus["lexicon"])
    spec = PromptSpec(mode, shots)
    requests = pipeline_requests(
        test, spec, "gpt-3.5-turbo-0613", graph=graph, extractor=extractor
    )
    responses = {
        inst.id: f"逐步分析后可以确定，答案是{inst.answer}。" for inst in test
    }
    return write_replay_fixture(corpus["dir"] / "fixture.jsonl", requests, responses)


def test_annotate_build_graph_outputs(corpus):
    ann_path, graph_path = pipeline_to_graph(corpus)
    annotated = list(read_annotated((ann_path,), set()))
    assert len(annotated) == 10
    assert all(a.qo_entities for a in annotated)
    # CLI output equals the library pipeline run directly
    train = load_dataset(corpus["train"])
    direct = list(annotate_stream(train, load_lexicon(corpus["lexicon"])))
    assert annotated == direct
    graph = load_graph(graph_path)
    assert graph.nodes == build_graph(direct).nodes
    assert graph.raw_counts == build_graph(direct).raw_counts


def test_build_graph_merges_shards(corpus, tmp_path):
    ann_path, graph_path = pipeline_to_graph(corpus)
    records = Path(ann_path).read_text(encoding="utf-8").splitlines(keepends=True)
    shard1 = tmp_path / "s1.jsonl"
    shard2 = tmp_path / "s2.jsonl"
    shard1.write_text("".join(records[:5]), encoding="utf-8")
    shard2.write_text("".join(records[5:]), encoding="utf-8")
    merged_path = tmp_path / "merged.kg"
    assert main([
        "build-graph",
        "--annotated", str(shard1),
        "--annotated", str(shard2),
        "--out", str(merged_path),
    ]) == 0
    whole = load_graph(graph_path)
    merged = load_graph(str(merged_path))
    assert merged.raw_counts == whole.raw_counts
    assert merged.analysis_freq == whole.analysis_freq


@pytest.mark.parametrize("layout", ["one file", "two files"])
def test_build_graph_refuses_a_repeated_instance_id(corpus, capsys, layout):
    # the same id twice would count its instance twice, as annotate refuses it
    ann_path, graph_path = pipeline_to_graph(corpus)
    old = Path(graph_path).read_bytes()
    first = Path(ann_path).read_text(encoding="utf-8").splitlines(keepends=True)[0]
    iid = json.loads(first)["id"]
    if layout == "one file":
        twice = corpus["dir"] / "twice.jsonl"
        twice.write_text(first + first, encoding="utf-8")
        argv, where = ["--annotated", str(twice)], f"{twice}:2"
    else:
        argv, where = ["--annotated", ann_path, "--annotated", ann_path], f"{ann_path}:1"
    capsys.readouterr()
    assert main(["build-graph", *argv, "--out", graph_path]) == 1
    err = capsys.readouterr().err
    assert f"{where}: duplicate instance id {iid!r}" in err and "Traceback" not in err
    assert Path(graph_path).read_bytes() == old
    assert not list(corpus["dir"].glob("*.tmp"))


@pytest.mark.parametrize("old_sidecar", [False, True])
def test_mine_seeds_refuses_a_repeated_instance_id(corpus, capsys, old_sidecar):
    # the file concatenated with itself would mine every instance twice
    ann_path, graph_path = pipeline_to_graph(corpus)
    text = Path(ann_path).read_text(encoding="utf-8")
    count = len(text.splitlines())
    iid = json.loads(text.splitlines()[0])["id"]
    twice = corpus["dir"] / "twice.ann.jsonl"
    twice.write_text(text + text, encoding="utf-8")
    out = corpus["dir"] / "twice.seeds.jsonl"
    if old_sidecar:
        assert main(["mine-seeds", "--annotated", ann_path, "--graph", graph_path,
                     "--out", str(out)]) == 0
    old = out.read_bytes() if out.exists() else None
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(twice), "--graph", graph_path,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{twice}:{count + 1}: duplicate instance id {iid!r}" in err
    assert "Traceback" not in err
    assert (out.read_bytes() if out.exists() else None) == old
    assert not list(corpus["dir"].glob("*.tmp"))


def test_mine_seeds_names_the_graph_when_both_inputs_are_bad(corpus, capsys):
    # the graph is loaded before the first annotated record is read
    ann_path, graph_path = pipeline_to_graph(corpus)
    lines = Path(ann_path).read_text(encoding="utf-8").splitlines(keepends=True)
    bad_ann = corpus["dir"] / "bad.ann.jsonl"
    bad_ann.write_text("".join([lines[0], "{not json\n", *lines[1:]]), encoding="utf-8")
    corrupt = corpus["dir"] / "corrupt.kg"
    data = bytearray(Path(graph_path).read_bytes())
    data[len(data) // 2] ^= 1
    corrupt.write_bytes(bytes(data))
    out = corpus["dir"] / "both_bad.seeds.jsonl"
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(bad_ann), "--graph", str(corrupt),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {corrupt}: checksum mismatch" in err
    assert str(bad_ann) not in err and "Traceback" not in err
    assert not out.exists()
    assert not list(corpus["dir"].glob("*.tmp"))
    # with the graph mended, the annotated line is named
    assert main(["mine-seeds", "--annotated", str(bad_ann), "--graph", graph_path,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad_ann}:2:" in err and "Traceback" not in err
    assert not out.exists()
    assert not list(corpus["dir"].glob("*.tmp"))


@pytest.mark.parametrize("option", ["out-dir", "template"])
def test_run_option_that_is_not_utf8_exits_1_naming_it(corpus, capsys, option):
    # a path argument whose bytes are not UTF-8 reaches the program as a
    # lone surrogate, which config.json, written as UTF-8, cannot hold
    not_utf8 = str(corpus["dir"] / os.fsdecode(b"o\xff"))
    out_dir = not_utf8 if option == "out-dir" else str(corpus["dir"] / "out")
    argv = ["run", "--dataset", corpus["test"], "--out-dir", out_dir,
            "--backend", "replay", "--fixture", os.devnull]
    if option == "template":
        argv += ["--template", not_utf8]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: --{option} is not UTF-8 text: {not_utf8!r}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in corpus["dir"].iterdir()) == [
        "lexicon.txt", "test.jsonl", "train.jsonl"]


def test_build_graph_malformed_line_in_second_file_exits_1_with_location(corpus, capsys):
    ann_path, _ = pipeline_to_graph(corpus)
    records = Path(ann_path).read_text(encoding="utf-8").splitlines(keepends=True)
    shard1, shard2 = corpus["dir"] / "s1.jsonl", corpus["dir"] / "s2.jsonl"
    shard1.write_text("".join(records[:5]), encoding="utf-8")
    shard2.write_text("".join([records[5], "{not json\n", *records[6:]]), encoding="utf-8")
    out = corpus["dir"] / "sharded.kg"
    capsys.readouterr()
    assert main(["build-graph", "--annotated", str(shard1), "--annotated", str(shard2),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{shard2}:2: invalid JSON" in err and "Traceback" not in err
    assert not out.exists()


def _annotated_lines(count: int, analysis_chars: int) -> str:
    """``count`` annotated records, 12 question-side and 14 analysis-side
    entities each from a 400-term vocabulary, with analyses of
    ``analysis_chars`` CJK characters."""
    rng = random.Random(23)
    vocab = [f"病{i:03d}" for i in range(400)]
    lines = []
    for i in range(count):
        rec = {"id": f"m{i}", "question": "问", "options": {"A": "甲", "B": "乙"},
               "answer": "A", "analysis": "析" * analysis_chars,
               "qo_entities": sorted(rng.sample(vocab, 12)),
               "r_entities": sorted(rng.sample(vocab, 14))}
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    return "".join(lines)


def test_build_graph_memory_does_not_grow_with_the_record_text(tmp_path):
    # build-graph holds one annotated record at a time and keeps only its
    # entity sets, so analyses 40 times as long leave its peak as it was
    peaks = {}
    for chars in (100, 4000):
        ann = tmp_path / f"a{chars}.jsonl"
        ann.write_text(_annotated_lines(500, chars), encoding="utf-8")
        out = tmp_path / f"g{chars}.kg"
        tracemalloc.start()
        try:
            assert main(["build-graph", "--annotated", str(ann), "--out", str(out)]) == 0
            peaks[chars] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "g100.kg").read_bytes() == (tmp_path / "g4000.kg").read_bytes()
    assert peaks[4000] < 1.1 * peaks[100], peaks


def test_mine_seeds_sidecar(corpus):
    ann_path, graph_path = pipeline_to_graph(corpus)
    seeds_path = corpus["dir"] / "seeds.jsonl"
    assert main([
        "mine-seeds",
        "--annotated", ann_path,
        "--graph", graph_path,
        "--out", str(seeds_path),
        "--k", "5",
    ]) == 0
    records = load_seed_records(str(seeds_path))
    assert len(records) == 10
    for rec in records.values():
        assert rec.result.k == 5
        assert len(rec.result) <= 5


# SHA-256 of the sidecar that mine-seeds writes for the corpus fixture at
# k=5; it moves only when what the miner computes, or how sidecars are
# written, changes
SIDECAR_SHA256 = "f7aa6c60fe563a27fd75384bb4487756226f1eed5ef48860c4ee561879671dd1"


def test_mine_seeds_sidecar_bytes_are_pinned(corpus):
    ann_path, graph_path = pipeline_to_graph(corpus)
    seeds_path = corpus["dir"] / "seeds.jsonl"
    assert main(["mine-seeds", "--annotated", ann_path, "--graph", graph_path,
                 "--out", str(seeds_path), "--k", "5"]) == 0
    assert hashlib.sha256(seeds_path.read_bytes()).hexdigest() == SIDECAR_SHA256


# SHA-256 of the graph file that annotate + build-graph write for the corpus
# fixture; it moves only when what the graph counts, or how graph files are
# written, changes
GRAPH_SHA256 = "24637d37718f8c7b9b6d411772acf7ccfa149cb128ba42350df3439223b7b722"


def test_build_graph_bytes_are_pinned(corpus):
    _, graph_path = pipeline_to_graph(corpus)
    assert hashlib.sha256(Path(graph_path).read_bytes()).hexdigest() == GRAPH_SHA256


def run_icp(corpus, graph_path, fixture, out_name, extra=()):
    out_dir = corpus["dir"] / out_name
    code = main([
        "run",
        "--dataset", corpus["test"],
        "--mode", "icp",
        "--shots", "zero",
        "--graph", graph_path,
        "--lexicon", corpus["lexicon"],
        "--backend", "replay",
        "--fixture", fixture,
        "--group-by", "discipline",
        "--out-dir", str(out_dir),
        *extra,
    ])
    return code, out_dir


def test_run_and_report_end_to_end(corpus):
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(corpus, graph_path, fixture, "out")
    assert code == 0

    records_path = out_dir / "records.jsonl"
    report_path = out_dir / "report.json"
    config_path = out_dir / "config.json"
    assert records_path.exists() and report_path.exists() and config_path.exists()

    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 4
    assert report["accuracy_pct"] == 100.0
    assert "discipline" in report["groups"]

    config = json.loads(config_path.read_text(encoding="utf-8"))
    assert config["mode"] == "icp"
    assert config["backend"] == "replay"
    assert config["version"]

    # rebuilding the report from the records file reproduces it exactly
    rebuilt = corpus["dir"] / "rebuilt.json"
    assert main([
        "report",
        "--records", str(records_path),
        "--group-by", "discipline",
        "--out", str(rebuilt),
    ]) == 0
    assert rebuilt.read_bytes() == report_path.read_bytes()


def test_run_test_size_subsamples_the_dataset(corpus):
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(corpus, graph_path, fixture, "out",
                            ("--test-size", "2", "--seed", "7"))
    assert code == 0
    sample, _ = split_sample(load_dataset(corpus["test"]), 2, 7)
    lines = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["instance_id"] for line in lines] == [inst.id for inst in sample]


def test_run_with_no_instances_logs_accuracy_na(corpus, caplog):
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    with caplog.at_level(logging.INFO, logger="seedqa.cli"):
        code, out_dir = run_icp(corpus, graph_path, fixture, "out", ("--test-size", "0"))
    assert code == 0
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluated")]
    assert summary == [f"evaluated 0 instances: accuracy n/a, 0 unresolved, 0 errors -> {out_dir}"]
    # report.json still states the missing accuracy as null
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["total"] == 0 and report["accuracy_pct"] is None


def test_run_config_round_trip(corpus):
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(corpus, graph_path, fixture, "out1")
    assert code == 0
    # rerun purely from the emitted config; only the output dir changes.
    # A key an older version wrote (max_in_flight) is ignored.
    config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
    assert "max_in_flight" not in config
    config["max_in_flight"] = 4
    (out_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out2 = corpus["dir"] / "out2"
    assert main([
        "run",
        "--config", str(out_dir / "config.json"),
        "--out-dir", str(out2),
    ]) == 0
    assert (out2 / "records.jsonl").read_bytes() == (out_dir / "records.jsonl").read_bytes()
    assert (out2 / "report.json").read_bytes() == (out_dir / "report.json").read_bytes()


_CLIENT_KEYS = ["api_key_env", "backend", "backoff_base", "base_url", "cache_dir", "fixture",
                "max_attempts", "model", "timeout"]
_COMMON_KEYS = ["command", "config", "func", "verbose"]


@pytest.mark.parametrize("command, keys", [
    ("annotate", _CLIENT_KEYS + ["dataset", "extraction_exemplars", "extractor", "lexicon",
                                 "no_analysis", "on_error", "out", "workers"]),
    ("build-graph", ["annotated", "out"]),
    ("mine-seeds", ["annotated", "graph", "k", "out"]),
    ("run", _CLIENT_KEYS + ["context_tokens", "dataset", "exemplars", "extraction_exemplars",
                            "extractor", "graph", "group_by", "k", "lexicon", "mode", "out_dir",
                            "reserved_tokens", "seed", "seeds", "shots", "stratify_by",
                            "temperature", "template", "test_size", "workers"]),
    ("report", ["group_by", "out", "records"]),
])
def test_option_set_per_command_is_pinned(command, keys):
    parsed = vars(build_parser().parse_args([command]))
    assert sorted(parsed) == sorted(_COMMON_KEYS + keys)
    # no option has a built-in value at parse time: main fills in _DEFAULTS
    assert {k for k, v in parsed.items() if v is not None} == {"command", "func", "verbose"}


@pytest.mark.parametrize("command", ["run", "annotate"])
def test_max_in_flight_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = capsys.readouterr().out
    assert "--workers" in help_text and "--max-in-flight" not in help_text


def test_help_is_for_users_not_about_the_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for command in ("annotate", "build-graph", "mine-seeds", "run", "report"):
        assert command in help_text
    assert "cmd_" not in help_text


def test_config_file_string_for_repeatable_option_is_one_item(corpus, tmp_path):
    ann_path, graph_path = pipeline_to_graph(corpus)
    conf = tmp_path / "graph_conf.json"
    conf.write_text(json.dumps({"annotated": ann_path}), encoding="utf-8")
    one_graph = tmp_path / "one.kg"
    assert main(["build-graph", "--config", str(conf), "--out", str(one_graph)]) == 0
    assert one_graph.read_bytes() == Path(graph_path).read_bytes()

    fixture = prepare_replay(corpus, graph_path)
    conf.write_text(json.dumps({
        "dataset": corpus["test"], "mode": "icp", "graph": graph_path,
        "lexicon": corpus["lexicon"], "backend": "replay", "fixture": fixture,
        "group_by": "discipline",
    }), encoding="utf-8")
    out_dir = tmp_path / "string_out"
    assert main(["run", "--config", str(conf), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert list(report["groups"]) == ["discipline"]
    config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
    assert config["group_by"] == ["discipline"]

    conf.write_text(json.dumps({
        "records": str(out_dir / "records.jsonl"), "group_by": "discipline",
    }), encoding="utf-8")
    rebuilt = tmp_path / "rebuilt.json"
    assert main(["report", "--config", str(conf), "--out", str(rebuilt)]) == 0
    assert rebuilt.read_bytes() == (out_dir / "report.json").read_bytes()


def test_run_config_json_is_pinned(corpus):
    # config.json holds every run option with its resolved value, plus the
    # version and the command; nothing else
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(corpus, graph_path, fixture, "out")
    assert code == 0
    expected = {
        "api_key_env": "SEEDQA_API_KEY", "backend": "replay", "backoff_base": 1.0,
        "base_url": "https://api.openai.com/v1", "cache_dir": None, "command": "run",
        "context_tokens": 4097, "dataset": corpus["test"], "exemplars": None,
        "extraction_exemplars": None, "extractor": "lexicon", "fixture": fixture,
        "graph": graph_path, "group_by": ["discipline"], "k": 10,
        "lexicon": corpus["lexicon"], "max_attempts": 3, "mode": "icp",
        "model": "gpt-3.5-turbo-0613", "out_dir": str(out_dir), "reserved_tokens": 256,
        "seed": 0, "seeds": None, "shots": "zero", "stratify_by": None,
        "temperature": 0.0, "template": None, "test_size": None, "timeout": 60.0,
        "version": __version__, "workers": 1,
    }
    text = (out_dir / "config.json").read_text(encoding="utf-8")
    assert json.loads(text) == expected
    assert text == json.dumps(expected, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


class _ClientBuilt(Exception):
    """Raised by the stand-in ChatClient once it has the config."""


# every client setting at a value other than its default, by option name
_CLIENT_OPTIONS = {
    "backend": "cached-live", "model": "m-pinned", "base_url": "http://localhost:9/v9",
    "api_key_env": "PINNED_KEY", "temperature": 0.5, "max_attempts": 5, "backoff_base": 0.25,
    "timeout": 7.5, "cache_dir": "pinned-cache", "fixture": "pinned.jsonl",
}


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command", ["run", "annotate"])
def test_client_settings_reach_the_client(corpus, tmp_path, monkeypatch, command, source):
    built = []

    def capture(config):
        built.append(config)
        raise _ClientBuilt

    monkeypatch.setattr("seedqa.cli.ChatClient", capture)
    options = dict(_CLIENT_OPTIONS)
    if command == "annotate":
        # annotate has no --temperature; a config file's entry is ignored
        if source == "flags":
            del options["temperature"]
        argv = ["annotate", "--dataset", corpus["train"], "--extractor", "llm",
                "--out", str(tmp_path / "ann.jsonl")]
    else:
        argv = ["run", "--dataset", corpus["test"], "--out-dir", str(tmp_path / "out")]
    if source == "flags":
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(options), encoding="utf-8")
        argv += ["--config", str(conf)]
    with pytest.raises(_ClientBuilt):
        main(argv)
    expected = {key: value for key, value in _CLIENT_OPTIONS.items() if key != "fixture"}
    expected["fixture_path"] = _CLIENT_OPTIONS["fixture"]
    if command == "annotate":
        expected["temperature"] = 0.0
    assert asdict(built[0]) == expected


def test_every_client_setting_but_the_fixture_is_a_run_option():
    settings = {f.name for f in fields(ClientConfig)} - {"fixture_path"}
    assert settings <= set(vars(build_parser().parse_args(["run"])))
    assert len(settings) == 9


@pytest.mark.parametrize("flags, entries, key, expected", [
    (["--mode", "standard_qa"], {"mode": "icp"}, "mode", "standard_qa"),
    # an explicit falsy value still beats the file
    (["--seed", "0"], {"seed": 7}, "seed", 0),
    # a repeatable flag replaces the file's list; the two are not merged
    (["--group-by", "a"], {"group_by": ["b"]}, "group_by", ["a"]),
], ids=["mode", "falsy", "repeatable"])
def test_flag_beats_config_file(corpus, tmp_path, flags, entries, key, expected):
    _, graph_path = pipeline_to_graph(corpus)
    test = load_dataset(corpus["test"])
    spec = PromptSpec("standard_qa", "zero")
    requests = pipeline_requests(test, spec, "gpt-3.5-turbo-0613")
    responses = {inst.id: f"答案是{inst.answer}。" for inst in test}
    fixture = write_replay_fixture(tmp_path / "qa_fixture.jsonl", requests, responses)

    config_file = tmp_path / "conf.json"
    config_file.write_text(json.dumps({
        "dataset": corpus["test"],
        "backend": "replay",
        "fixture": fixture,
        "graph": graph_path,
        "lexicon": corpus["lexicon"],
        **entries,
    }), encoding="utf-8")
    out_dir = tmp_path / "qa_out"
    assert main([
        "run",
        "--config", str(config_file),
        *flags,
        "--out-dir", str(out_dir),
    ]) == 0
    config = json.loads((out_dir / "config.json").read_text(encoding="utf-8"))
    assert config[key] == expected
    records = [json.loads(l) for l in (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()]
    assert all(r["mode"] == "standard_qa" for r in records)
    assert all("bleu_1" not in r for r in records)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert list(report["groups"]) == config["group_by"]


def test_run_with_precomputed_seeds(corpus):
    ann_path, graph_path = pipeline_to_graph(corpus)
    # annotate the test split to mine its seeds up front
    test_ann = corpus["dir"] / "test.ann.jsonl"
    assert main([
        "annotate", "--dataset", corpus["test"],
        "--lexicon", corpus["lexicon"], "--out", str(test_ann),
    ]) == 0
    seeds_path = corpus["dir"] / "test.seeds.jsonl"
    assert main([
        "mine-seeds", "--annotated", str(test_ann),
        "--graph", graph_path, "--out", str(seeds_path),
    ]) == 0
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(
        corpus, graph_path, fixture, "seeded_out", extra=("--seeds", str(seeds_path))
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["accuracy_pct"] == 100.0


def test_run_rejects_sidecar_mined_with_other_k(corpus, capsys):
    ann_path, graph_path = pipeline_to_graph(corpus)
    seeds_path = corpus["dir"] / "k3.seeds.jsonl"
    assert main([
        "mine-seeds", "--annotated", ann_path, "--graph", graph_path,
        "--k", "3", "--out", str(seeds_path),
    ]) == 0
    capsys.readouterr()
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(
        corpus, graph_path, fixture, "k_out", extra=("--seeds", str(seeds_path))
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(seeds_path) in err and "k=3" in err and "k=10" in err
    assert not (out_dir / "config.json").exists()


def test_run_rejects_sidecar_missing_test_ids(corpus, capsys):
    # mined from the train split, so none of the four test ids is present
    ann_path, graph_path = pipeline_to_graph(corpus)
    seeds_path = corpus["dir"] / "train.seeds.jsonl"
    assert main([
        "mine-seeds", "--annotated", ann_path, "--graph", graph_path,
        "--out", str(seeds_path),
    ]) == 0
    capsys.readouterr()
    fixture = prepare_replay(corpus, graph_path)
    code, out_dir = run_icp(
        corpus, graph_path, fixture, "partial_out", extra=("--seeds", str(seeds_path))
    )
    assert code == 1
    assert "lack 4 of 4 test ids, first 'te0'" in capsys.readouterr().err
    assert not (out_dir / "records.jsonl").exists()
    assert not (out_dir / "config.json").exists()


def test_run_context_split_reaches_request(corpus):
    # the fixture only answers requests whose max_tokens is 3000 - estimate
    test = load_dataset(corpus["test"])
    spec = PromptSpec("cot", "zero", context_tokens=3000, reserved_tokens=300)
    requests = pipeline_requests(test, spec, "gpt-3.5-turbo-0613",
                                 context_tokens=3000, floor=300)
    fixture = write_replay_fixture(corpus["dir"] / "split.jsonl", requests,
                                   {inst.id: "答案是A。" for inst in test})
    out_dir = corpus["dir"] / "split_out"
    assert main(["run", "--dataset", corpus["test"], "--mode", "cot",
                 "--backend", "replay", "--fixture", fixture,
                 "--context-tokens", "3000", "--reserved-tokens", "300",
                 "--out-dir", str(out_dir)]) == 0
    records = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["error"] for line in records] == [None] * len(test)


@pytest.mark.parametrize("reserved", ["0", "-5"])
def test_run_rejects_reserved_tokens_below_one(corpus, capsys, reserved):
    fixture = corpus["dir"] / "empty_fixture.jsonl"
    fixture.write_text("", encoding="utf-8")
    out_dir = corpus["dir"] / "reserved_out"
    assert main(["run", "--dataset", corpus["test"], "--backend", "replay",
                 "--fixture", str(fixture), "--reserved-tokens", reserved,
                 "--out-dir", str(out_dir)]) == 1
    assert "reserved_tokens must be positive" in capsys.readouterr().err
    assert not (out_dir / "config.json").exists()


def test_exit_1_on_config_errors(corpus, capsys):
    assert main(["run", "--out-dir", "x"]) == 1          # no dataset
    assert "dataset" in capsys.readouterr().err
    empty_fixture = corpus["dir"] / "empty_fixture.jsonl"
    empty_fixture.write_text("", encoding="utf-8")
    assert main(["run", "--dataset", corpus["test"], "--out-dir", "x",
                 "--mode", "icp", "--backend", "replay",
                 "--fixture", str(empty_fixture)]) == 1
    assert "graph" in capsys.readouterr().err
    assert main(["annotate", "--dataset", "missing.jsonl", "--lexicon",
                 corpus["lexicon"], "--out", "o.jsonl"]) == 1
    out = corpus["dir"] / "never.ann.jsonl"
    capsys.readouterr()
    assert main(["annotate", "--dataset", corpus["test"], "--lexicon", corpus["lexicon"],
                 "--out", str(out), "--workers", "0"]) == 1
    assert "error: workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--dataset", corpus["test"], "--out-dir", "x",
                 "--backend", "replay"]) == 1            # replay without fixture
    assert main(["bogus-command"]) == 1
    assert main(["run", "--bogus-flag", "y"]) == 1


@pytest.mark.parametrize("question_block", ["Q: {question} {oops}", "Q: {0}", "Q: {question"])
def test_run_refuses_template_placeholder_before_writing_config(corpus, capsys,
                                                                question_block):
    with open(data_path("prompt_template.json"), encoding="utf-8") as fh:
        template = json.load(fh) | {"question_block": question_block}
    tpl = corpus["dir"] / "t.json"
    tpl.write_text(json.dumps(template, ensure_ascii=False), encoding="utf-8")
    fixture = corpus["dir"] / "empty.jsonl"
    fixture.write_text("", encoding="utf-8")
    out_dir = corpus["dir"] / "out"
    capsys.readouterr()
    assert main(["run", "--dataset", corpus["test"], "--out-dir", str(out_dir),
                 "--fixture", str(fixture), "--template", str(tpl)]) == 1
    err = capsys.readouterr().err
    assert f"{tpl}: question_block: " in err and "Traceback" not in err
    assert not (out_dir / "config.json").exists()


@pytest.mark.parametrize("flag, value", [("--timeout", "0"), ("--timeout", "nan"),
                                         ("--backoff-base", "inf"), ("--temperature", "nan"),
                                         ("--base-url", "file:///etc")])
def test_run_refuses_client_setting_before_writing_config(corpus, capsys, monkeypatch, flag,
                                                           value):
    # a live request would fail inside the HTTP library, be retried as a
    # transport failure and end the run with exit 2
    import seedqa.client

    sent = []
    monkeypatch.setattr(seedqa.client, "_default_transport", lambda *args: sent.append(args))
    out_dir = corpus["dir"] / "out"
    capsys.readouterr()
    assert main(["run", "--dataset", corpus["test"], "--out-dir", str(out_dir),
                 "--backend", "live", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag[2:].replace("-", "_") in err
    assert not (out_dir / "config.json").exists()
    assert sent == []


def test_exit_1_on_malformed_dataset(tmp_path, corpus):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    assert main(["annotate", "--dataset", str(bad),
                 "--lexicon", corpus["lexicon"], "--out", "o.jsonl"]) == 1


def _packaged_records(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _input_case(kind, corpus):
    """Valid records of one input kind, a field each record requires, and
    the argv of a command that reads the file with ``BAD`` as its path."""
    d = corpus["dir"]
    empty = d / "empty_fixture.jsonl"
    empty.write_text("", encoding="utf-8")
    replay = ["--backend", "replay", "--fixture", str(empty)]
    run = ["run", "--dataset", corpus["test"], "--out-dir", str(d / "out"), *replay]
    test_records = [instance_to_record(inst) for inst in load_dataset(corpus["test"])]
    if kind == "dataset":
        argv = ["annotate", "--dataset", "BAD", "--lexicon", corpus["lexicon"],
                "--out", str(d / "o.jsonl")]
        return test_records, "question", argv
    if kind == "annotated":
        records = [r | {"qo_entities": [], "r_entities": []} for r in test_records]
        return records, "qo_entities", ["build-graph", "--annotated", "BAD",
                                         "--out", str(d / "g.kg")]
    if kind == "seeds":
        # only an icp run reads the sidecar
        records = [{"id": r["id"], "query": [], "seeds": [], "scores": [], "k": 10}
                   for r in test_records]
        _, graph_path = pipeline_to_graph(corpus)
        return records, "scores", [*run, "--mode", "icp", "--graph", graph_path,
                                   "--lexicon", corpus["lexicon"], "--seeds", "BAD"]
    if kind == "records":
        records = [
            record_to_dict(EvalRecord(r["id"], "cot", "zero", "d", "答案是A", "A", "A", True))
            for r in test_records
        ]
        return records, "mode", ["report", "--records", "BAD", "--out", str(d / "r.json")]
    if kind == "fixture":
        records = [{"digest": f"d{i}", "text": "答案是A"} for i in range(3)]
        return records, "text", [*run, "--fixture", "BAD"]  # the last --fixture wins
    if kind == "exemplars":
        records = _packaged_records("exemplars.jsonl")
        return records, "question", [*run, "--shots", "few", "--exemplars", "BAD"]
    if kind == "extraction_exemplars":
        records = _packaged_records("extraction_exemplars.jsonl")
        argv = ["annotate", "--dataset", corpus["test"], "--extractor", "llm",
                "--extraction-exemplars", "BAD", *replay, "--out", str(d / "o.jsonl")]
        return records, "text", argv
    if kind == "template":
        with open(data_path("prompt_template.json"), encoding="utf-8") as fh:
            return [json.load(fh)], "question_block", [*run, "--template", "BAD"]
    raise AssertionError(kind)


def _write_with_bad_line(corpus, kind, records, field, value):
    """Write ``records`` with ``field`` of the second one set to ``value``;
    ``"options.B"`` sets the text of option B.  Returns the file's path."""
    field, _, label = field.partition(".")
    records = [*records]
    records[1] = records[1] | {field: records[1][field] | {label: value} if label else value}
    bad = corpus["dir"] / f"bad_{kind}.jsonl"
    bad.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                   encoding="utf-8")
    return bad


# raw JSON values that only the parser refuses: an integer over Python's
# 4,300-digit limit for converting a string to an int, and an array nested
# past the recursion limit
_UNPARSEABLE_VALUES = {"huge_int": "9" * 5000, "deep_nesting": DEEP_JSON}


def _with_unparseable(rec: dict, breakage: str) -> str:
    """``rec`` as one JSON line plus a field holding the ``breakage`` value."""
    return (json.dumps(rec, ensure_ascii=False)[:-1]
            + f', "{breakage}": {_UNPARSEABLE_VALUES[breakage]}}}')


@pytest.mark.parametrize("breakage", ("invalid_json", "not_object", "missing_field", "huge_int",
                                      "deep_nesting"))
@pytest.mark.parametrize("kind", ("dataset", "annotated", "seeds", "records", "fixture",
                                  "exemplars", "extraction_exemplars", "template"))
def test_malformed_input_exits_1_with_location(corpus, capsys, kind, breakage):
    records, field, argv = _input_case(kind, corpus)
    rec = records[0] if kind == "template" else records[1]
    broken = {
        "not_object": list(rec),
        "missing_field": {k: v for k, v in rec.items() if k != field},
    }
    bad = corpus["dir"] / f"bad_{kind}.json"
    if kind == "template":
        # one JSON object spread over lines; errors name the path only
        text = json.dumps(broken.get(breakage, rec), ensure_ascii=False, indent=2)
        if breakage == "invalid_json":
            text = text.replace("\n", "\noops\n", 1)
        elif breakage in _UNPARSEABLE_VALUES:
            text = _with_unparseable(rec, breakage)
        location = str(bad)
    else:
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        lines[1] = (lines[1][:-1] if breakage == "invalid_json"
                    else _with_unparseable(rec, breakage) if breakage in _UNPARSEABLE_VALUES
                    else json.dumps(broken[breakage], ensure_ascii=False))
        text = "\n".join(lines)
        location = f"{bad}:2"
    bad.write_text(text + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert location in err
    assert "Traceback" not in err


@pytest.mark.parametrize("constant", ("NaN", "Infinity", "-Infinity"))
@pytest.mark.parametrize("kind", ("dataset", "annotated", "seeds", "records", "fixture",
                                  "exemplars", "extraction_exemplars"))
def test_non_standard_json_constant_exits_1_with_location(corpus, capsys, kind, constant):
    # Python's json module reads these three, but they are not JSON: a records
    # line holding one reached report.json as a bare NaN or Infinity
    records, field, argv = _input_case(kind, corpus)
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    lines[1] = lines[1][:-1] + f', "{field}": {constant}}}'
    bad = corpus["dir"] / f"bad_{kind}.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: invalid JSON ({constant} is not a JSON value)" in err
    assert "Traceback" not in err
    assert not (corpus["dir"] / "r.json").exists()


@pytest.mark.parametrize("kind", ("dataset", "run_dataset", "annotated", "seeds", "records",
                                  "fixture", "exemplars", "extraction_exemplars", "template",
                                  "config"))
def test_unpaired_surrogate_exits_1_with_location(corpus, capsys, kind):
    # UTF-8 cannot encode an escaped lone surrogate: a dataset question that
    # held one loaded, and the run failed after writing config.json, naming
    # no file; an escaped pair in the line before is one character, and legal
    records, field, argv = _input_case(
        "dataset" if kind in ("run_dataset", "config") else kind, corpus)
    d = corpus["dir"]
    replay = ["--backend", "replay", "--fixture", str(d / "empty_fixture.jsonl")]
    if kind == "run_dataset":
        argv = ["run", "--dataset", "BAD", "--out-dir", str(d / "out"), *replay]
    if kind in ("template", "config"):
        # one JSON object spread over lines, written with every non-ASCII
        # character escaped; the line of the string is named
        obj = records[0] | {field: "\U0001f600 \ud800"}
        if kind == "config":
            argv = ["run", "--config", "BAD", "--out-dir", str(d / "out")]
            obj = {"dataset": corpus["test"], "backend": "replay", "fixture": replay[-1],
                   "model": "\U0001f600", "system": "\ud800"}
        text = json.dumps(obj, indent=2)
        line = text[:text.index("\\ud800")].count("\n") + 1
    else:
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        lines[0] = lines[0][:-1] + ', "note": "\\ud83d\\ude00"}'
        lines[1] = lines[1][:-1] + f', "{field}": "x\\ud800"}}'
        text, line = "\n".join(lines) + "\n", 2
    bad = d / f"bad_{kind}.json"
    bad.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:{line}: unpaired surrogate \\ud800 in a JSON string" in err
    assert "Traceback" not in err
    assert not (d / "out" / "config.json").exists()
    assert not (d / "r.json").exists()


@pytest.mark.parametrize("kind", ("dataset", "annotated", "seeds", "records", "fixture",
                                  "exemplars", "extraction_exemplars", "template",
                                  "lexicon", "graph", "config"))
def test_input_not_utf8_exits_1_naming_file(corpus, capsys, kind):
    # the text is decoded in blocks, so the error names the file, not a line
    d = corpus["dir"]
    if kind == "lexicon":
        good = Path(corpus["lexicon"]).read_bytes()
        argv = ["annotate", "--dataset", corpus["test"], "--lexicon", "BAD",
                "--out", str(d / "o.jsonl")]
    elif kind == "graph":
        ann_path, graph_path = pipeline_to_graph(corpus)
        good = Path(graph_path).read_bytes()
        argv = ["mine-seeds", "--annotated", ann_path, "--graph", "BAD",
                "--out", str(d / "s.jsonl")]
    elif kind == "config":
        good = b'{"group_by": "discipline"}\n'
        argv = ["report", "--config", "BAD", "--records", "missing.jsonl",
                "--out", str(d / "r.json")]
    else:
        records, _, argv = _input_case(kind, corpus)
        good = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()
    bad = d / f"bad_{kind}"
    bad.write_bytes(good + b"\xff\n")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err.lower()
    assert not re.search(re.escape(str(bad)) + r":\d", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, field", [
    ("annotated", "qo_entities"),
    ("annotated", "r_entities"),
    ("exemplars", "seeds"),
    ("extraction_exemplars", "entities"),
    ("seeds", "query"),
])
def test_string_for_a_list_of_strings_exits_1_with_location(corpus, capsys, kind, field):
    # a string where a list of strings belongs is refused, not split into
    # its characters
    records, _, argv = _input_case(kind, corpus)
    bad = _write_with_bad_line(corpus, kind, records, field, "高血压")
    where = f"{bad}:2: '{field}' must be a list of strings"
    loader = {"annotated": lambda path: list(read_annotated((path,), set())),
              "exemplars": load_exemplars,
              "extraction_exemplars": load_extraction_exemplars, "seeds": load_seed_records}
    with pytest.raises(DatasetFormatError, match=re.escape(where)):
        loader[kind](str(bad))
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("kind, field, value", [
    ("dataset", "id", None),
    ("dataset", "question", ["q"]),
    ("dataset", "options.B", {"x": 2}),
    ("dataset", "answer", 1),
    ("dataset", "analysis", None),
    ("exemplars", "question", ["q"]),
    ("exemplars", "options.A", 1),
    ("exemplars", "answer", None),
    ("exemplars", "analysis", {"k": 1}),
    ("extraction_exemplars", "text", ["t"]),
    ("fixture", "text", None),
])
def test_non_string_text_exits_1_with_location(corpus, capsys, kind, field, value):
    # a text field is never passed through str(): '["q"]' or 'None' is refused
    records, _, argv = _input_case(kind, corpus)
    bad = _write_with_bad_line(corpus, kind, records, field, value)
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: '{field.split('.')[-1]}' must be a string" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, expected", [
    ("instance_id", 7, "a string"),
    ("response_text", None, "a string"),
    ("extracted_answer", 1, "a string or null"),
    ("error", ["x"], "a string or null"),
    ("correct", "yes", "true or false"),
    ("correct", 1, "true or false"),
    ("metadata", ["discipline"], "an object of strings"),
    ("metadata", {"discipline": 1}, "an object of strings"),
    ("bleu_1", "x", "a number"),
    ("bleu_1", True, "a number"),
    ("seed_count", "3", "an integer or null"),
    ("seed_count", 2.5, "an integer or null"),
    ("response_tokens", 7.25, "an integer or null"),
])
def test_report_on_mistyped_record_exits_1_with_location(corpus, capsys, field, value,
                                                         expected):
    records, _, argv = _input_case("records", corpus)
    bad = _write_with_bad_line(corpus, "records", records, field, value)
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: '{field}' must be {expected}, got {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("repeat", [{}, {"correct": False, "extracted_answer": "B"}],
                         ids=["identical", "different"])
def test_report_refuses_repeated_instance_id(corpus, capsys, repeat):
    # a repeated instance would be counted twice in every total and mean
    records, _, argv = _input_case("records", corpus)
    bad = corpus["dir"] / "repeated_records.jsonl"
    bad.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                           for r in (records[0], records[0] | repeat)), encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: instance_id {records[0]['instance_id']!r} repeats an earlier record" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("metadata, reason", [
    ({"year": 2020, "discipline": None}, "'discipline' must be a string or an integer"),
    ([], "field 'metadata' must be an object or null"),
    (0, "field 'metadata' must be an object or null"),
    ("", "field 'metadata' must be an object or null"),
], ids=["null-value", "list", "zero", "empty-string"])
def test_run_on_mistyped_metadata_exits_1_with_location(corpus, capsys, metadata, reason):
    records, _, _ = _input_case("dataset", corpus)
    bad = _write_with_bad_line(corpus, "dataset", records, "metadata", metadata)
    out_dir = corpus["dir"] / "meta_out"
    capsys.readouterr()
    assert main(["run", "--dataset", str(bad), "--out-dir", str(out_dir), "--backend", "replay",
                 "--fixture", str(corpus["dir"] / "empty_fixture.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2: {reason}" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("entity, reason", [
    ("ASPIRIN", "entity not in canonical form: 'ASPIRIN'"),
    (" aspirin", "entity not in canonical form: ' aspirin'"),
    ("", "entity is empty after normalization: ''"),
], ids=["cased", "padded", "empty"])
def test_build_graph_on_non_canonical_entity_exits_1_with_location(corpus, capsys, entity,
                                                                    reason):
    records, _, argv = _input_case("annotated", corpus)
    bad = corpus["dir"] / "bad_annotated.jsonl"
    bad.write_text(json.dumps(records[0] | {"qo_entities": [entity]}, ensure_ascii=False)
                   + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:1: {reason}" in err and "Traceback" not in err


def test_run_icp_negative_k_exits_1_before_any_call(corpus, capsys, monkeypatch):
    import seedqa.client as client_mod

    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        return 200, json.dumps({"choices": [{"message": {"content": "答案是A"}}]})

    monkeypatch.setattr(client_mod, "_default_transport", transport)
    _, graph_path = pipeline_to_graph(corpus)
    out_dir = corpus["dir"] / "neg_k_out"
    capsys.readouterr()
    assert main([
        "run",
        "--dataset", corpus["test"],
        "--mode", "icp",
        "--graph", graph_path,
        "--lexicon", corpus["lexicon"],
        "--backend", "live",
        "--base-url", "http://127.0.0.1:9",
        "--k", "-1",
        "--out-dir", str(out_dir),
    ]) == 1
    err = capsys.readouterr().err
    assert "k must be non-negative" in err and "Traceback" not in err
    assert calls == []
    assert not (out_dir / "config.json").exists()


@pytest.mark.parametrize("seeds, reason", [
    (["高血压", "高血压"], "repeated seed entity '高血压'"),
    (["高血压", "ASPIRIN"], "seed entity not in canonical form: 'ASPIRIN'"),
], ids=["repeated", "not canonical"])
def test_run_refuses_sidecar_with_bad_seed_before_any_call(corpus, capsys, monkeypatch,
                                                           seeds, reason):
    # a repeated seed would count twice in seed_count and render twice in
    # the prompt, while seed_quality scores the distinct set
    import seedqa.client as client_mod

    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        return 200, json.dumps({"choices": [{"message": {"content": "答案是A"}}]})

    monkeypatch.setattr(client_mod, "_default_transport", transport)
    _, graph_path = pipeline_to_graph(corpus)
    seeds_path = corpus["dir"] / "bad.seeds.jsonl"
    seeds_path.write_text(
        json.dumps({"id": "te0", "seeds": seeds, "scores": [3, 4], "k": 10},
                   ensure_ascii=False) + "\n", encoding="utf-8")
    out_dir = corpus["dir"] / "bad_seed_out"
    capsys.readouterr()
    assert main([
        "run",
        "--dataset", corpus["test"],
        "--mode", "icp",
        "--graph", graph_path,
        "--lexicon", corpus["lexicon"],
        "--seeds", str(seeds_path),
        "--backend", "live",
        "--base-url", "http://127.0.0.1:9",
        "--out-dir", str(out_dir),
    ]) == 1
    err = capsys.readouterr().err
    assert f"{seeds_path}:1: {reason}" in err and "Traceback" not in err
    assert calls == []
    assert not (out_dir / "config.json").exists()


def test_mine_seeds_negative_k_exits_1_before_reading_files(corpus, capsys, monkeypatch):
    # an empty annotated file used to give exit 0 and an empty sidecar
    import seedqa.entities as entities_mod
    import seedqa.graph as graph_mod

    _, graph_path = pipeline_to_graph(corpus)
    ann_path = corpus["dir"] / "empty.ann.jsonl"
    ann_path.write_text("", encoding="utf-8")

    def no_read(path, *rest):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(entities_mod, "read_annotated", no_read)
    monkeypatch.setattr(graph_mod, "load_graph", no_read)
    out = corpus["dir"] / "neg_k_seeds.jsonl"
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(ann_path), "--graph", graph_path,
                 "--out", str(out), "--k", "-1"]) == 1
    err = capsys.readouterr().err
    assert "k must be non-negative" in err and "Traceback" not in err
    assert not out.exists()


def test_run_records_non_string_reply_as_failure(corpus, monkeypatch):
    # a "content": null reply fails its instance, not the run
    import seedqa.client as client_mod

    def null_reply(url, headers, payload, timeout):
        return 200, json.dumps({"choices": [{"message": {"content": None}}]})

    monkeypatch.setattr(client_mod, "_default_transport", null_reply)
    out_dir = corpus["dir"] / "null_out"
    assert main([
        "run",
        "--dataset", corpus["test"],
        "--backend", "live",
        "--base-url", "http://127.0.0.1:9",
        "--out-dir", str(out_dir),
    ]) == 0
    lines = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["error"].startswith("ApiStatusError") for line in lines)
    assert json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["errors"] == 4


@pytest.mark.parametrize("command, entry, reason", [
    ("run", {"workers": [1]}, "must be a string or a number"),
    ("run", {"k": [1]}, "must be a string or a number"),
    ("run", {"temperature": {}}, "must be a string or a number"),
    ("run", {"workers": "two"}, "invalid int value: 'two'"),
    ("run", {"workers": True}, "expected one argument"),
    ("run", {"mode": "bogus"}, "invalid choice"),
    ("build-graph", {"annotated": 5}, "must be a string or a list of strings"),
    ("build-graph", {"annotated": ["a.jsonl", 5]}, "must be a string or a list of strings"),
    ("annotate", {"no_analysis": "yes"}, "ignored explicit argument 'yes'"),
])
def test_config_value_of_wrong_type_exits_1_naming_file_and_key(tmp_path, capsys, command,
                                                                 entry, reason):
    # each value is read as its flag would be, so a value of the wrong JSON
    # type is refused before the command starts
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entry), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert f"config file {conf}: {next(iter(entry))!r}: " in err and reason in err
    assert "Traceback" not in err


def test_config_file_not_an_object_exits_1_naming_file(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[]", encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert f"error: config file {conf} must hold a JSON object" in err
    assert "Traceback" not in err


def test_config_file_with_huge_integer_exits_1_naming_file(tmp_path, capsys):
    # Python refuses to convert an integer string over 4,300 digits
    conf = tmp_path / "conf.json"
    conf.write_text(f'{{"workers": {"9" * 5000}}}', encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read config file {conf}: " in err and "Traceback" not in err


def test_config_file_nested_past_the_recursion_limit_exits_1_naming_file(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(f'{{"workers": {DEEP_JSON}}}', encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read config file {conf}: " in err and "recursion" in err
    assert "Traceback" not in err


@pytest.mark.concurrency
def test_exit_2_on_transport_exhaustion(corpus, tmp_path, monkeypatch):
    # needs more instances than the consecutive-failure threshold
    big = synth_dataset(30, 7, prefix="tx")
    big_path = tmp_path / "big_test.jsonl"
    write_dataset(big, big_path)
    out_dir = corpus["dir"] / "dead_out"

    import seedqa.client as client_mod

    def refuse(url, headers, payload, timeout):
        raise ConnectionError("connection refused")

    monkeypatch.setattr(client_mod, "_default_transport", refuse)
    code = main([
        "run",
        "--dataset", str(big_path),
        "--mode", "standard_qa",
        "--backend", "live",
        "--base-url", "http://127.0.0.1:9",
        "--max-attempts", "1",
        "--backoff-base", "0",
        "--out-dir", str(out_dir),
    ])
    assert code == 2
    # partial records are flushed for inspection
    assert (out_dir / "records.jsonl").exists()
    assert (out_dir / "config.json").exists()
    records = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert records
    assert all(json.loads(r)["error"] for r in records)


@pytest.mark.concurrency
def test_run_keeps_records_when_extraction_fails(corpus, monkeypatch):
    # the extractor fails from its fifth call on: the last two of the four
    # test instances become failure records and the run still finishes
    _, graph_path = pipeline_to_graph(corpus)
    fixture = prepare_replay(corpus, graph_path)
    import seedqa.cli as cli_mod

    real_extractor_from = cli_mod._extractor_from

    def flaky_extractor_from(opts, client=None):
        extractor = real_extractor_from(opts, client)
        calls = itertools.count(1)

        def flaky(text):
            if next(calls) >= 5:
                raise TransportError("extraction endpoint down")
            return extractor(text)

        return flaky

    monkeypatch.setattr(cli_mod, "_extractor_from", flaky_extractor_from)
    code, out_dir = run_icp(corpus, graph_path, fixture, "flaky_out")
    assert code == 0
    records = [json.loads(line) for line in
               (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["instance_id"] for r in records] == [
        inst.id for inst in load_dataset(corpus["test"])
    ]
    assert [r["error"] for r in records[:2]] == [None, None]
    assert all(r["error"].startswith("TransportError") for r in records[2:])
    assert all(r["prompt_digest"] == "" for r in records[2:])


@pytest.mark.parametrize("text", ["高血压\tHTN\n糖尿病\tHTN\n", "高血压\n糖尿病\t高血压\n"])
def test_annotate_rejects_conflicting_lexicon(corpus, capsys, text):
    lexicon = corpus["dir"] / "conflict_lexicon.txt"
    lexicon.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["annotate", "--dataset", corpus["train"], "--lexicon", str(lexicon),
                 "--out", str(corpus["dir"] / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"{lexicon}:2: " in err
    assert "Traceback" not in err


def _llm_annotate_argv(corpus, tmp_path, out_path, miss: str | None = None) -> list[str]:
    """``annotate --extractor llm`` on the test set, with one exemplar and a
    replay fixture that answers "发热、头痛" to each extraction request,
    except both requests of the instance ``miss``."""
    from seedqa.corpus import qo_text

    extraction_exemplars = [("患者发热。", ["发热"])]
    ex_path = tmp_path / "extraction.jsonl"
    ex_path.write_text(
        json.dumps({"text": "患者发热。", "entities": ["发热"]}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    fixture_lines = []
    for inst in load_dataset(corpus["test"]):
        for text in (qo_text(inst), inst.analysis):
            prompt = build_extraction_prompt(text, extraction_exemplars)
            digest = request_digest(CompletionRequest(
                model="gpt-3.5-turbo-0613", prompt=prompt,
                temperature=0.0, max_tokens=256,
            ))
            if inst.id != miss:
                fixture_lines.append(json.dumps(
                    {"digest": digest, "text": "发热、头痛"}, ensure_ascii=False
                ))
    fixture = tmp_path / "extract_fixture.jsonl"
    fixture.write_text("\n".join(fixture_lines) + "\n", encoding="utf-8")
    return [
        "annotate",
        "--dataset", corpus["test"],
        "--extractor", "llm",
        "--extraction-exemplars", str(ex_path),
        "--backend", "replay",
        "--fixture", str(fixture),
        "--out", str(out_path),
    ]


def test_annotate_with_llm_extractor(corpus, tmp_path):
    out_path = tmp_path / "llm_ann.jsonl"
    assert main(_llm_annotate_argv(corpus, tmp_path, out_path)) == 0
    annotated = list(read_annotated((str(out_path),), set()))
    assert all(a.qo_entities == {"发热", "头痛"} for a in annotated)


def test_annotate_streams_into_its_output(corpus, tmp_path, monkeypatch, capsys):
    # the output is opened before the first extraction, so an unwritable
    # --out fails with no request made, and a failure part-way leaves the
    # old file as it was, with no temp file beside it
    import seedqa.client as client_mod
    import seedqa.entities as entities_mod

    calls = []

    def counted(cls, name):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *a: calls.append(name) or method(self, *a))

    counted(entities_mod.LlmExtractor, "__call__")
    counted(client_mod.ChatClient, "complete")
    missing = tmp_path / "missing" / "ann.jsonl"
    capsys.readouterr()
    assert main(_llm_annotate_argv(corpus, tmp_path, missing)) == 1
    err = capsys.readouterr().err
    assert "error: " in err and str(missing.parent) in err
    assert "Traceback" not in err
    assert calls == []

    out_path = tmp_path / "ann.jsonl"
    out_path.write_bytes(b"old\n")
    argv = _llm_annotate_argv(corpus, tmp_path, out_path, miss="te2")
    assert main([*argv, "--on-error", "raise"]) == 1
    err = capsys.readouterr().err
    assert "error: annotation failed for instance 'te2'" in err
    assert "Traceback" not in err
    # te0 and te1 are each asked twice, and te2 once before its miss
    assert calls.count("__call__") == 5
    assert out_path.read_bytes() == b"old\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("backend, code", (("replay", 1), ("live", 2)))
def test_annotate_extraction_failure_exit_codes(corpus, tmp_path, monkeypatch, capsys,
                                                backend, code):
    # a replay miss is a configuration fault (exit 1); a dead endpoint
    # exhausts the retry budget (exit 2); neither writes the output
    import seedqa.client as client_mod

    def refuse(url, headers, payload, timeout):
        raise ConnectionError("connection refused")

    monkeypatch.setattr(client_mod, "_default_transport", refuse)
    fixture = tmp_path / "empty_fixture.jsonl"
    fixture.write_text("", encoding="utf-8")
    out_path = tmp_path / "never.jsonl"
    capsys.readouterr()
    assert main([
        "annotate", "--dataset", corpus["test"], "--extractor", "llm",
        "--backend", backend, "--fixture", str(fixture), "--max-attempts", "1",
        "--backoff-base", "0", "--out", str(out_path),
    ]) == code
    err = capsys.readouterr().err
    assert "error: annotation failed for instance 'te0'" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_a_key_the_header_cannot_carry_reaches_no_log_or_output(corpus, tmp_path, monkeypatch,
                                                                caplog, capsys):
    # the key is refused before any attempt and is not a transport failure:
    # run records the refusal for every instance and exits 0, and annotate
    # exits 1, as for any other extraction failure
    import seedqa.client as client_mod

    sent = []
    monkeypatch.setattr(client_mod, "_default_transport", lambda *args: sent.append(args))
    monkeypatch.setenv("SEEDQA_API_KEY", "sk-SECRET123\r")
    live = ["--backend", "live", "--base-url", "http://127.0.0.1:9", "--max-attempts", "2",
            "--backoff-base", "0"]
    out_dir = tmp_path / "out"
    capsys.readouterr()
    with caplog.at_level(logging.DEBUG):
        assert main(["run", "--dataset", corpus["test"], "--out-dir", str(out_dir), *live]) == 0
        assert main(["annotate", "--dataset", corpus["test"], "--extractor", "llm",
                     "--out", str(tmp_path / "never.jsonl"), *live]) == 1
    assert sent == []
    records = (out_dir / "records.jsonl").read_text(encoding="utf-8")
    refusal = "the API key in $SEEDQA_API_KEY is not printable ASCII"
    assert all(json.loads(line)["error"] == f"ValueError: {refusal}"
               for line in records.splitlines())
    err = capsys.readouterr().err
    assert refusal in err
    written = [path.read_text(encoding="utf-8") for path in out_dir.iterdir()]
    assert not [text for text in [*written, caplog.text, err] if "SECRET123" in text]
    assert not (tmp_path / "never.jsonl").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0


_COMMAND_NAMES = ("annotate", "build-graph", "mine-seeds", "run", "report")


def test_top_level_help_and_unknown_command_name_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert all(command in help_text for command in _COMMAND_NAMES)
    assert main(["nosuch"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err and "Traceback" not in err
    assert all(f"'{command}'" in err for command in _COMMAND_NAMES)


def test_annotate_refuses_a_lexicon_saved_with_a_byte_order_mark(tmp_path, capsys):
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text(json.dumps({
        "id": "q1", "question": "高血压伴头痛", "options": {"A": "发热", "B": "咳嗽"},
        "answer": "A", "analysis": "糖尿病",
    }, ensure_ascii=False) + "\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\ufeff高血压\n糖尿病\n", encoding="utf-8")
    out = tmp_path / "ds.ann.jsonl"
    capsys.readouterr()
    assert main(["annotate", "--dataset", str(dataset), "--lexicon", str(lexicon),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{lexicon}:1: line starts with a UTF-8 byte order mark" in err
    assert "Traceback" not in err
    assert not out.exists()
