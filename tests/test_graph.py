from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import random
import re
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest

import seedqa.corpus as corpus_module
import seedqa.graph as graph_module
from seedqa.cli import main
from seedqa.entities import normalize_entity, save_annotated
from seedqa.graph import (
    _CHUNK_CHARS,
    GraphFormatError,
    KnowledgeGraph,
    build_graph,
    load_graph,
    save_graph,
)
from seedqa.seeds import SeedQuery, mine_seeds

from conftest import (
    DEEP_JSON,
    ENTITY_POOL,
    UNICODE_PALETTE,
    global_counter_build_graph,
    line_by_line_graph_nodes,
    line_by_line_graph_rows,
    make_annotated,
    naive_graph_stats,
    random_annotated,
    ranked_row,
    row_weights,
    v1_graph_bytes,
)

# hand-derived for the three-instance corpus: m = 5, row sums a:3 b:3 e:1,
# analysis frequencies c:2 d:2
W_AC = (2 / 3) * math.log10(5 / 3)
W_AD = (1 / 3) * math.log10(5 / 3)
W_BC = (1 / 3) * math.log10(5 / 3)
W_BD = (2 / 3) * math.log10(5 / 3)
W_ED = (1 / 1) * math.log10(5 / 3)


def test_toy_counts(toy_graph):
    g = toy_graph
    assert g.m == 5
    assert set(g.nodes) == {"a", "b", "c", "d", "e"}
    assert g.nodes == tuple(sorted(g.nodes))
    assert g.raw_counts[("a", "c")] == 2
    assert g.raw_counts[("a", "d")] == 1
    assert g.raw_counts[("b", "c")] == 1
    assert g.raw_counts[("b", "d")] == 2
    assert g.raw_counts[("e", "d")] == 1
    assert g.edge_count == 5
    assert g.analysis_freq == {"c": 2, "d": 2}


def test_toy_missing_edges_are_absent(toy_graph):
    assert ("a", "b") not in toy_graph.raw_counts
    assert ("c", "a") not in toy_graph.raw_counts
    assert ("nope", "a") not in toy_graph.raw_counts
    assert "b" not in [t for t, _, _ in ranked_row(toy_graph, "a")]


def test_toy_weights_match_formula(toy_graph):
    w = row_weights(toy_graph)
    assert w[("a", "c")] == pytest.approx(W_AC, abs=1e-9)
    assert w[("a", "d")] == pytest.approx(W_AD, abs=1e-9)
    assert w[("b", "c")] == pytest.approx(W_BC, abs=1e-9)
    assert w[("b", "d")] == pytest.approx(W_BD, abs=1e-9)
    assert w[("e", "d")] == pytest.approx(W_ED, abs=1e-9)
    assert w[("a", "c")] == pytest.approx(0.14789916641, abs=1e-9)
    assert w[("a", "d")] == pytest.approx(0.07394958320, abs=1e-9)


def test_per_instance_counting_ignores_repeats():
    # sets per instance: mentioning an entity twice in one analysis adds
    # nothing, and a self-loop is counted like any other pair
    train = [make_annotated("i1", {"x"}, {"x", "y"})]
    g = build_graph(train)
    assert g.raw_counts == {("x", "x"): 1, ("x", "y"): 1}
    assert g.analysis_freq == {"x": 1, "y": 1}


def test_neighbors_sorted_desc_weight_then_entity(toy_graph):
    assert ranked_row(toy_graph, "a") == (("c", W_AC, 2), ("d", W_AD, 1))
    assert ranked_row(toy_graph, "b") == (("d", W_BD, 2), ("c", W_BC, 1))


def test_neighbors_tie_breaks_lexicographically():
    # two targets with identical counts and frequencies tie on weight
    train = [make_annotated("i1", {"x"}, {"n2", "n1"})]
    g = build_graph(train)
    assert [t for t, _, _ in ranked_row(g, "x")] == ["n1", "n2"]


def test_neighbors_of_sink_and_unknown(toy_graph):
    assert ranked_row(toy_graph, "c") == ()
    assert ranked_row(toy_graph, "missing") == ()


def test_a_row_that_holds_every_node_ranks_to_m():
    # the rankings share the ints 0..m, and a row that points at every node,
    # itself included, ranks its last target m; more nodes than the
    # interpreter caches small ints for
    rng = random.Random(53)
    vocab = [f"n{i:03d}" for i in range(300)]
    train = [make_annotated("all", {"n007"}, set(vocab)),
             *(make_annotated(f"s{i}", set(), rng.sample(vocab, rng.randint(1, 40)))
               for i in range(60))]
    g = build_graph(train)
    m, raw, _, weights = naive_graph_stats(train)
    expected = sorted(((t, w, raw[(s, t)]) for (s, t), w in weights.items() if s == "n007"),
                      key=lambda row: (-row[1], row[0]))
    assert g.m == m == len(expected) == 300
    assert list(ranked_row(g, "n007")) == expected
    assert list(g._rank(g._index["n007"]).values()) == list(range(1, m + 1))


def test_ranking_every_row_adds_no_int_objects():
    # a ranked entry costs its dict slot, about 37 bytes; an int object of
    # its own for the target and for the rank, as in a ranking that counted
    # its own range, would take it to about 80
    rng = random.Random(59)
    m = 1500
    nodes = [f"n{i:04d}" for i in range(m)]
    sources = rng.sample(range(m), 40)
    keys = sorted(s * m + t for s in sources for t in rng.sample(range(m), rng.randint(300, 1000)))
    g = KnowledgeGraph(nodes, array("q", keys), array("q", (rng.randint(1, 9) for _ in keys)),
                       {node: rng.randint(0, 50) for node in nodes})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = sum(len(g._rank(i)) for i in sources)
        added = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert entries == len(keys)
    assert added < 50 * entries, added / entries


def test_empty_graph():
    g = build_graph([])
    assert g.m == 0
    assert g.edge_count == 0
    assert ranked_row(g, "anything") == ()


def test_analysis_only_entities_counted_in_m():
    train = [make_annotated("i1", set(), {"r1", "r2"})]
    g = build_graph(train)
    assert g.m == 2
    assert g.edge_count == 0
    assert g.analysis_freq == {"r1": 1, "r2": 1}


def test_fuzz_against_naive_oracle():
    rng = random.Random(12345)
    for trial in range(200):
        train = random_annotated(rng, rng.randint(0, 12))
        g = build_graph(train)
        m, raw, freq, weights = naive_graph_stats(train)
        assert g.m == m, f"trial {trial}"
        assert g.raw_counts == raw, f"trial {trial}"
        assert g.analysis_freq == freq, f"trial {trial}"
        got = row_weights(g)
        assert set(got) == set(weights), f"trial {trial}"
        for edge, expected in weights.items():
            assert got[edge] == pytest.approx(expected, abs=1e-9), (
                f"trial {trial} edge {edge}"
            )
        for src in g.nodes:
            expected_rows = sorted(
                ((t, w, raw[(s, t)]) for (s, t), w in weights.items() if s == src),
                key=lambda row: (-row[1], row[0]),
            )
            assert list(ranked_row(g, src)) == expected_rows, f"trial {trial} source {src}"


def test_save_load_round_trip(tmp_path, toy_graph):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    loaded = load_graph(str(path))
    assert loaded.nodes == toy_graph.nodes
    assert loaded.raw_counts == toy_graph.raw_counts
    assert loaded.analysis_freq == toy_graph.analysis_freq
    assert all(ranked_row(loaded, n) == ranked_row(toy_graph, n) for n in toy_graph.nodes)
    # a second save is byte-identical
    second = tmp_path / "g2.kg"
    save_graph(loaded, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_save_load_round_trip_fuzz(tmp_path):
    rng = random.Random(31)
    first, last = min(ENTITY_POOL), max(ENTITY_POOL)
    rest = tuple(sorted(set(ENTITY_POOL) - {first}))
    for trial in range(26):
        if trial == 25:
            # node 0 has no out-edges and the last node has some, so rows at
            # both ends of the edge table are read
            train = [make_annotated("ends", {last}, {first}), *random_annotated(rng, 6, rest)]
        else:
            train = random_annotated(rng, rng.randint(0, 10))
        g = build_graph(train)
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert loaded.nodes == g.nodes
        assert loaded.raw_counts == g.raw_counts
        assert loaded.analysis_freq == g.analysis_freq
        for node in (*g.nodes, "未知"):
            assert ranked_row(loaded, node) == ranked_row(g, node), f"trial {trial}: {node}"
        # every row holds exactly its source's edges
        rows = {(s, t): c for s in loaded.nodes for t, _, c in ranked_row(loaded, s)}
        assert rows == g.raw_counts, f"trial {trial}"
        if trial == 25:
            assert g.nodes[0] == first and g.nodes[-1] == last
            assert ranked_row(loaded, first) == () and ranked_row(loaded, last)
        for _ in range(3):
            members = rng.sample(g.nodes, min(len(g.nodes), rng.randint(1, 3)))
            query = SeedQuery(frozenset(members) | {"未知"})
            assert mine_seeds(loaded, query, k=5) == mine_seeds(g, query, k=5), f"trial {trial}"


def test_header_contents(tmp_path, toy_graph):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header == {
        "magic": "seedqa-graph",
        "version": 1,
        "nodes": 5,
        "edges": 5,
        "freqs": 2,
    }


def test_load_rejects_corruption(tmp_path, toy_graph):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    data = path.read_text(encoding="utf-8")

    flipped = tmp_path / "flipped.kg"
    flipped.write_text(data.replace("\t2\t", "\t3\t", 1), encoding="utf-8")
    with pytest.raises(GraphFormatError, match="checksum"):
        load_graph(str(flipped))

    truncated = tmp_path / "truncated.kg"
    lines = data.splitlines(keepends=True)
    truncated.write_text("".join(lines[:-2] + lines[-1:]), encoding="utf-8")
    with pytest.raises(GraphFormatError):
        load_graph(str(truncated))


def test_load_rejects_trailer_over_the_integer_digit_limit(tmp_path, toy_graph, capsys):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    body = path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]
    path.write_text("".join(body) + '{"sha256": ' + "9" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{path}: missing or malformed checksum trailer")):
        load_graph(str(path))

    empty = tmp_path / "empty.ann.jsonl"
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(empty), "--graph", str(path),
                 "--out", str(tmp_path / "seeds.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: missing or malformed checksum trailer" in err and "Traceback" not in err


def test_load_rejects_trailer_nested_past_the_recursion_limit(tmp_path, toy_graph, capsys):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    body = path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]
    path.write_text("".join(body) + '{"sha256": ' + DEEP_JSON + "}\n", encoding="utf-8")
    empty = tmp_path / "empty.ann.jsonl"
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(empty), "--graph", str(path),
                 "--out", str(tmp_path / "seeds.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: missing or malformed checksum trailer" in err and "Traceback" not in err


def test_load_rejects_wrong_magic_and_version(tmp_path, toy_graph):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    data = path.read_text(encoding="utf-8")

    def rewrite(replacement: str, target: str):
        lines = data.split("\n")
        body = "\n".join([lines[0].replace(replacement, target), *lines[1:-2]]) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        out = tmp_path / "tampered.kg"
        out.write_text(body + json.dumps({"sha256": digest}) + "\n", encoding="utf-8")
        return str(out)

    with pytest.raises(GraphFormatError, match="magic"):
        load_graph(rewrite("seedqa-graph", "other-format"))
    with pytest.raises(GraphFormatError, match="version"):
        load_graph(rewrite('"version": 1', '"version": 99'))
    # True == 1.0 == 1, so both used to load
    for version in ("true", "1.0"):
        reason = f":1: unsupported format version {json.loads(version)!r}$"
        with pytest.raises(GraphFormatError, match=reason):
            load_graph(rewrite('"version": 1', f'"version": {version}'))


def test_load_rejects_non_graph_file(tmp_path):
    path = tmp_path / "not.kg"
    for text, reason in (("hello\nworld\n", "missing or malformed checksum trailer"),
                         ("hello\n", "too short to be a graph file")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}: {reason}")):
            load_graph(str(path))


def test_load_rejects_header_counting_an_edge_too_many(tmp_path, toy_graph):
    # the checksum is valid, so only the line count can catch it
    lines = _toy_file_lines(tmp_path, toy_graph)
    header = json.loads(lines[0])
    header["edges"] += 1
    lines[0] = json.dumps(header)
    path = _write_with_checksum(tmp_path / "long.kg", lines)
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{path}: expected 14 lines before trailer, got 13")):
        load_graph(path)


def test_save_graph_writes_v1_bytes(tmp_path, toy_train):
    # question entities come from the front of the vocabulary and analysis
    # entities from the back, so most graphs have analysis-only nodes; an
    # instance without analysis entities leaves question-side sinks
    rng = random.Random(808)
    vocab = [*ENTITY_POOL, "aspirin", "x-ray", 'say "ah"']
    corpora = [toy_train, []]
    for c in range(50):
        corpora.append([
            make_annotated(
                f"v{c}.{i}",
                set(rng.sample(vocab[:12], rng.randint(0, 3))),
                set(rng.sample(vocab[6:], rng.randint(0, 3))),
            )
            for i in range(rng.randint(0, 8))
        ])
    # a few hundred instances over node names that JSON must escape (a
    # quote, a backslash, control characters, a newline) or that lie outside
    # the BMP, all in the node table that save_graph formats in one call
    escapes = [*ENTITY_POOL, 'say "ah"', "back\\slash", "a\x01b", "nl\nx", "tab\tx",
               "\x7fdel", "line\u2028sep", "\U00020000", "\U0001F600x"]
    corpora.append([
        make_annotated(f"e{i}", set(rng.sample(escapes, rng.randint(0, 4))),
                       set(rng.sample(escapes, rng.randint(0, 5))))
        for i in range(300)
    ])
    question_sinks = analysis_only = 0
    for trial, train in enumerate(corpora):
        g = build_graph(train)
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        assert path.read_bytes() == v1_graph_bytes(train), f"trial {trial}"
        question_side = {e for ann in train for e in ann.qo_entities}
        question_sinks += any(not ranked_row(g, n) for n in question_side)
        analysis_only += any(n not in question_side for n in g.nodes)
    assert question_sinks >= 5 and analysis_only >= 5
    # the empty graph writes no node lines: header and trailer only
    assert (tmp_path / "g1.kg").read_text(encoding="utf-8").count("\n") == 2
    text = path.read_text(encoding="utf-8")
    for escaped in ('\\"', "\\\\", "\\u0001", "\\n", "\\t", "\U00020000"):
        assert escaped in text, escaped
    assert load_graph(str(path)).raw_counts == g.raw_counts


def _zipf_corpus(rng, count: int, vocab_size: int):
    """``count`` instances whose entities follow a Zipf law over
    ``vocab_size`` names, so the first names are hubs whose rows reach
    hundreds of targets and sit on both sides of an instance.  Question
    entities come from the first 70% of the names, so some of the rest are
    analysis-only, and either side may be empty."""
    vocab = [f"实体{i}" for i in range(vocab_size)]
    weights = [1 / rank for rank in range(1, vocab_size + 1)]
    cut = max(1, vocab_size * 7 // 10)
    return [
        make_annotated(
            f"z{i}",
            set(rng.choices(vocab[:cut], weights[:cut], k=rng.choice((0, 1, 3, 5, 8)))),
            set(rng.choices(vocab, weights, k=rng.choice((0, 2, 6, 14)))),
        )
        for i in range(count)
    ]


def test_build_graph_matches_global_counter_builder():
    rng = random.Random(2222)
    corpora = [_zipf_corpus(rng, rng.randint(0, 60), rng.choice((5, 40, 300)))
               for _ in range(40)]
    corpora += [_zipf_corpus(rng, 600, 800), _zipf_corpus(rng, 6000, 2000)]
    for trial, train in enumerate(corpora):
        got, want = build_graph(train), global_counter_build_graph(train)
        assert got.nodes == want.nodes, f"trial {trial}"
        assert list(got.analysis_freq.items()) == list(want.analysis_freq.items()), (
            f"trial {trial}")
        for name in ("_edges", "_counts"):
            table = getattr(got, name)
            # every key, below m * m, and every count, at most len(train), fits in 4 bytes
            assert table.typecode == "i", f"trial {trial}: {name}"
            assert table == getattr(want, name), f"trial {trial}: {name}"
    # the largest corpus, built last, holds every case the row-at-a-time
    # count must get right
    big, g = corpora[-1], got
    assert len(big) >= 6000
    assert max(hi - lo for lo, hi in map(g._row, range(g.m))) >= 300
    assert any(key // g.m == key % g.m for key in g._edges)
    assert any(not ann.qo_entities for ann in big) and any(not ann.r_entities for ann in big)
    question_side = {e for ann in big for e in ann.qo_entities}
    assert any(n not in question_side for n in g.nodes)


def test_build_graph_keeps_one_string_per_distinct_entity():
    # a file reader makes a new string for every entity of every record; the
    # builder keeps one per distinct name and frees each instance and row
    # once counted, so its peak stays near the size of the graph it returns
    corpus = _zipf_corpus(random.Random(2323), 6000, 2000)

    def read_back():
        for ann in corpus:
            yield make_annotated(ann.base.id, {"".join(list(e)) for e in ann.qo_entities},
                                 {"".join(list(e)) for e in ann.r_entities})

    tracemalloc.start()
    try:
        g = build_graph(read_back())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * kept, (peak, kept)
    want = global_counter_build_graph(corpus)
    assert g.nodes == want.nodes and g._edges == want._edges and g._counts == want._counts


def test_save_graph_failure_keeps_old_file(tmp_path, toy_train, monkeypatch):
    path = tmp_path / "g.kg"
    save_graph(build_graph(toy_train[:1]), str(path))
    old = path.read_bytes()

    class FullDisk:
        """A file that takes the body, then fails on the trailer."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            body, *_ = chunks
            self.fh.write(body)
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(corpus_module, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_graph(build_graph(toy_train), str(path))
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["g.kg"]
    assert load_graph(str(path)).raw_counts == build_graph(toy_train[:1]).raw_counts


def test_save_graph_streams_the_file_without_holding_its_text(tmp_path):
    # rows go to the file, and into the digest, one chunk at a time, so
    # saving needs far less memory than the file holds
    rng = random.Random(37)
    vocab = [f"e{i:04d}" for i in range(3000)]
    g = build_graph(make_annotated(f"s{i}", rng.sample(vocab, 12), rng.sample(vocab, 14))
                    for i in range(800))
    path = tmp_path / "g.kg"
    tracemalloc.start()
    try:
        save_graph(g, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak < size / 2, (peak, size)
    loaded = load_graph(str(path))
    assert loaded.raw_counts == g.raw_counts and loaded.analysis_freq == g.analysis_freq


def test_load_graph_needs_less_than_twice_the_file_beyond_what_it_keeps(tmp_path):
    # the file is read once and hashed in place, and only its node lines and
    # row table are decoded, so no second copy of the text is ever held
    rng = random.Random(41)
    vocab = [f"病例{i:04d}" for i in range(3000)]
    g = build_graph(make_annotated(f"s{i}", rng.sample(vocab, 12), rng.sample(vocab, 14))
                    for i in range(800))
    path = tmp_path / "g.kg"
    save_graph(g, str(path))
    tracemalloc.start()
    try:
        loaded = load_graph(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak - kept < 2 * size, (peak, kept, size)
    assert loaded.raw_counts == g.raw_counts and loaded.analysis_freq == g.analysis_freq


def test_load_graph_parses_rows_from_the_bytes_into_tables_sized_once(tmp_path, monkeypatch):
    # the row table is never decoded.  Up to its first parsed row the load
    # has held the file's bytes, the node table and one block of the UTF-8
    # check; a decoded copy of the rows beside the bytes held twice the file.
    # While it parses, it holds the bytes, the tables it returns and one
    # chunk's lists and ints, about 12 chunks' size.  The tables are
    # allocated once, at the header's sizes, with no spare capacity
    rng = random.Random(61)
    path = _write_with_checksum(tmp_path / "g.kg", _graph_lines(rng, 400, 30000, 400, 99))
    size = os.path.getsize(path)
    read_rows, peaks = graph_module._read_rows, []

    def peak_then_read_rows(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return read_rows(*args)

    monkeypatch.setattr(graph_module, "_read_rows", peak_then_read_rows)
    tracemalloc.start()
    try:
        loaded = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = (loaded._edges, loaded._counts)
    assert size > 4 * _CHUNK_CHARS and loaded.edge_count == 30000
    assert peaks[0] < size + 3 * _CHUNK_CHARS, (peaks[0] - size) / _CHUNK_CHARS
    held = sum(t.__sizeof__() for t in tables)
    assert peak - held < size + 14 * _CHUNK_CHARS, (peak - held - size) / _CHUNK_CHARS
    assert all(t.__sizeof__() == array("q").__sizeof__() + t.itemsize * len(t) for t in tables)


def _cjk_graph_file(tmp_path):
    """A graph with long CJK node names, saved; returns it and its path.
    Its node table alone spans several 64 KiB blocks, so some multibyte
    characters straddle any block boundary."""
    rng = random.Random(43)
    vocab = [f"{'病' * 20}{i:04d}" for i in range(2500)]
    g = build_graph(make_annotated(f"s{i}", rng.sample(vocab, 8), rng.sample(vocab, 10))
                    for i in range(600))
    path = tmp_path / "cjk.kg"
    save_graph(g, str(path))
    return g, path


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_load_reads_line_endings_as_text_mode_does(tmp_path, newline):
    # "\r\n" and a lone "\r" end a line as "\n" does, so a copy with other
    # line endings loads the same tables under the same checksum, and a
    # defect is named at the same line
    g, path = _cjk_graph_file(tmp_path)
    converted = tmp_path / "converted.kg"
    converted.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    loaded = load_graph(str(converted))
    assert loaded.nodes == g.nodes
    assert loaded._edges == g._edges and loaded._counts == g._counts
    assert loaded.raw_counts == g.raw_counts and loaded.analysis_freq == g.analysis_freq

    lines = path.read_text(encoding="utf-8").splitlines()[:-1]
    lines[-1] = lines[-1].split("\t")[0] + "\t0"
    corrupt_path = tmp_path / "corrupt.kg"
    corrupt = _write_with_checksum(corrupt_path, lines)
    corrupt_path.write_bytes(corrupt_path.read_bytes().replace(b"\n", newline.encode()))
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{corrupt}:{len(lines)}: frequency must be at least 1")):
        load_graph(corrupt)


@pytest.mark.parametrize("where, bad, reason", [
    ("node table", b'"\xff', "invalid start byte"),
    ("row table", b"\t\xe9\xab", "invalid continuation byte"),
    ("end of the file", None, "unexpected end of data"),
])
def test_load_checks_utf8_before_the_checksum(tmp_path, where, bad, reason):
    # every file here also fails its checksum: the UTF-8 check fires first,
    # and names the path alone
    g, path = _cjk_graph_file(tmp_path)
    data = path.read_bytes()
    if bad is None:
        data = data + "病".encode("utf-8")[:2]
    elif where == "node table":
        at = data.index(b"\n") + 1
        data = data[:at] + bad + data[at + 1 :]
    else:
        at = data.rindex(b"\t", 0, len(data) - 200)
        data = data[:at] + bad + data[at + 1 :]
    broken = tmp_path / "broken.kg"
    broken.write_bytes(data)
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{broken}: not UTF-8 text ({reason})") + "$"):
        load_graph(str(broken))


def test_load_rejects_a_non_ascii_digit_deep_in_the_edge_table(tmp_path):
    # past the first chunk, and after multibyte node names: the row is named
    # at its file line, whatever its byte offset
    g, path = _cjk_graph_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()[:-1]
    lineno = 1 + g.m + g.edge_count - 3
    source, target, _ = lines[lineno - 1].split("\t")
    lines[lineno - 1] = f"{source}\t{target}\t２"
    corrupt = _write_with_checksum(tmp_path / "corrupt.kg", lines)
    assert len("\n".join(lines[1 + g.m : lineno])) > 2 * _CHUNK_CHARS
    where = f"{corrupt}:{lineno}: malformed edge row {lines[lineno - 1]!r}: "
    with pytest.raises(GraphFormatError,
                       match=re.escape(where + "fields must be ASCII decimal integers")):
        load_graph(corrupt)


def _write_with_checksum(path, lines: list[str]) -> str:
    """Write ``lines`` as a graph file body under a valid checksum trailer."""
    body = "".join(f"{text}\n" for text in lines)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(body + json.dumps({"sha256": digest}) + "\n", encoding="utf-8")
    return str(path)


def test_load_rejects_rows_out_of_index_order(tmp_path):
    # save_graph writes rows in index order and the loader requires it: a
    # shuffled edge table (even trials) or frequency table (odd trials)
    # fails at its first row that is below the one before it
    rng = random.Random(2024)
    vocab = [f"n{i:02d}" for i in range(30)]
    rejected = 0
    for trial in range(20):
        g = build_graph(random_annotated(rng, rng.randint(1, 25), vocab))
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()[:-1]
        kind, lo, hi = (("edge", 1 + g.m, 1 + g.m + g.edge_count) if trial % 2 == 0
                        else ("frequency", 1 + g.m + g.edge_count, len(lines)))
        rows = lines[lo:hi]
        rng.shuffle(rows)
        keys = [[int(field) for field in row.split("\t")[:-1]] for row in rows]
        bad = next((j for j in range(1, len(rows)) if keys[j] < keys[j - 1]), None)
        shuffled = _write_with_checksum(tmp_path / f"s{trial}.kg",
                                        lines[:lo] + rows + lines[hi:])
        if bad is None:
            assert load_graph(shuffled).raw_counts == g.raw_counts, f"trial {trial}"
            continue
        where = f"{shuffled}:{lo + bad + 1}: {kind} row {rows[bad]!r} out of order"
        with pytest.raises(GraphFormatError, match=re.escape(where)):
            load_graph(shuffled)
        rejected += 1
    assert rejected >= 15


def test_load_accepts_an_escaped_surrogate_pair(tmp_path, toy_graph):
    # the pair is one character, as save_graph would write it unescaped
    lines = _toy_file_lines(tmp_path, toy_graph)
    lines[2] = '"b\\ud83d\\ude00"'
    loaded = load_graph(_write_with_checksum(tmp_path / "pair.kg", lines))
    assert loaded.nodes == ("a", "b\U0001f600", "c", "d", "e")
    rename = {"b": "b\U0001f600"}
    assert loaded.raw_counts == {(rename.get(s, s), rename.get(t, t)): n
                                 for (s, t), n in toy_graph.raw_counts.items()}


def test_load_accepts_leading_zeros(tmp_path, toy_graph):
    # int() reads "007" as 7, and so does the loader
    lines = _toy_file_lines(tmp_path, toy_graph)
    lines[6], lines[11] = "00\t002\t02", "02\t2"
    loaded = load_graph(_write_with_checksum(tmp_path / "zeros.kg", lines))
    assert loaded.raw_counts == toy_graph.raw_counts
    assert loaded.analysis_freq == toy_graph.analysis_freq
    assert all(ranked_row(loaded, n) == ranked_row(toy_graph, n) for n in toy_graph.nodes)


@pytest.mark.concurrency
def test_neighbors_concurrent_first_use_is_race_free(tmp_path):
    # eight threads use the same cold sources at once, switching as often
    # as the interpreter allows: four read their ranked rows, and four mine
    # each one's whole ranking as a one-member query.  Every result,
    # including the repeated ones that may find another thread's cache
    # entry, must equal the single-thread one
    rng = random.Random(99)
    vocab = [f"e{i:03d}" for i in range(120)]
    path = tmp_path / "g.kg"
    save_graph(build_graph(random_annotated(rng, 300, vocab)), str(path))
    reference = load_graph(str(path))
    sources = [node for node in reference.nodes if ranked_row(reference, node)]
    assert len(sources) >= 100

    def mine(graph, node):
        return mine_seeds(graph, SeedQuery(frozenset({node})), k=len(vocab))

    uses = (ranked_row, mine)
    expected = [[use(reference, node) for node in sources for _ in range(3)] for use in uses]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cold = load_graph(str(path))
            barrier = threading.Barrier(8, timeout=30)
            results: list[list | None] = [None] * 8

            def use_all(slot: int) -> None:
                barrier.wait()
                use = uses[slot % 2]
                results[slot] = [use(cold, node) for node in sources for _ in range(3)]

            threads = [threading.Thread(target=use_all, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(got == expected[slot % 2] for slot, got in enumerate(results))
            assert [ranked_row(cold, node) for node in sources for _ in range(3)] == expected[0]
    finally:
        sys.setswitchinterval(interval)


def test_in_order_file_is_parsed_a_chunk_at_a_time(tmp_path, monkeypatch):
    # a file as save_graph writes it passes every chunk's check at once, so
    # no row is read again one by one
    rng = random.Random(31)
    g = build_graph(random_annotated(rng, 6000, [f"e{i:03d}" for i in range(400)]))
    path = tmp_path / "g.kg"
    save_graph(g, str(path))
    assert path.stat().st_size > 3 * _CHUNK_CHARS

    def reread(*args):
        raise AssertionError("a valid row was read again on its own")

    monkeypatch.setattr(graph_module, "_row_values", reread)
    loaded = load_graph(str(path))
    assert loaded.raw_counts == g.raw_counts and loaded.analysis_freq == g.analysis_freq


def _toy_file_lines(tmp_path, toy_graph) -> list[str]:
    """Lines before the trailer of the toy graph's file: header, nodes
    a b c d e on lines 2-6, edge rows on lines 7-11 (0 2 2, 0 3 1, 1 2 1,
    1 3 2, 4 3 1), frequency rows on lines 12-13 (2 2, 3 2)."""
    path = tmp_path / "toy.kg"
    save_graph(toy_graph, str(path))
    return path.read_text(encoding="utf-8").splitlines()[:-1]


# (case, {1-based line: replacement text}, line reported, reason)
_CORRUPT_ROWS = [
    ("negative source index", {7: "-1\t0\t3"}, 7, "out of range"),
    ("negative target index", {7: "0\t-1\t3"}, 7, "out of range"),
    ("source index past the node table", {7: "5\t0\t3"}, 7, "out of range"),
    ("repeated edge row", {7: "0\t1\t3", 8: "0\t1\t5"}, 8, "repeated edge"),
    # line 9 repeats line 8, and line 10 repeats line 7 below line 9; the
    # first line not above the one before it is named
    ("repeated edge in unsorted rows",
     {7: "1\t2\t1", 8: "4\t3\t1", 9: "4\t3\t2", 10: "1\t2\t7", 11: "0\t3\t1"},
     9, "repeated edge"),
    ("node entry not a string", {2: "5"}, 2, "not a string"),
    ("header without nodes",
     {1: '{"magic": "seedqa-graph", "version": 1, "edges": 5, "freqs": 2}'}, 1, "'nodes'"),
    ("header size not an integer",
     {1: '{"magic": "seedqa-graph", "version": 1, "nodes": "5", "edges": 5, "freqs": 2}'},
     1, "'nodes'"),
    ("header not an object", {1: "[]"}, 1, "not a JSON object"),
    # Python refuses to convert an integer string over 4,300 digits
    ("header size over the integer digit limit",
     {1: '{"magic": "seedqa-graph", "version": 1, "nodes": ' + "9" * 5000 + '}'},
     1, "malformed header"),
    ("node entry over the integer digit limit", {2: "9" * 5000}, 2, "malformed node entry"),
    ("header nested past the recursion limit",
     {1: '{"magic": "seedqa-graph", "version": 1, "nodes": ' + DEEP_JSON + '}'},
     1, "malformed header"),
    # the node table is parsed whole first, then line by line: both parses
    # must refuse JSON nested past the recursion limit
    ("node entry nested past the recursion limit", {3: DEEP_JSON}, 3, "malformed node entry"),
    # save_graph could never write one: UTF-8 cannot encode it
    ("node entry with an unpaired surrogate", {3: '"b\\ud800"'}, 3,
     "malformed node entry (unpaired surrogate \\ud800 in a JSON string)"),
    ("unpaired surrogate after a non-canonical node", {2: '"A"', 3: '"b\\ud800"'}, 2,
     "node entry 'A' not in canonical form"),
    ("negative frequency index", {12: "-1\t2"}, 12, "out of range"),
    ("frequency index past the node table", {12: "5\t2"}, 12, "out of range"),
    ("repeated frequency row", {13: "2\t3"}, 13, "repeated frequency"),
    ("repeated node entry", {4: '"b"'}, 4, "repeated node entry"),
    ("edge row out of index order", {8: "0\t1\t1"}, 8, r"edge row '0\t1\t1' out of order"),
    ("frequency row out of index order", {12: "3\t2", 13: "2\t2"}, 13,
     r"frequency row '2\t2' out of order"),
    ("node entry out of name order", {3: '"c"', 4: '"b"'}, 4, "node entry 'b' out of order"),
    ("zero edge count", {7: "0\t2\t0"}, 7, "at least 1"),
    ("negative edge count", {8: "0\t3\t-1"}, 8, "at least 1"),
    ("zero frequency", {12: "2\t0"}, 12, "at least 1"),
    ("underscore in a count", {9: "1\t2\t1_0"}, 9, "ASCII decimal"),
    ("space-padded index", {10: "1\t 3\t2"}, 10, "ASCII decimal"),
    ("plus-signed count", {11: "4\t3\t+1"}, 11, "ASCII decimal"),
    ("non-ASCII digit in an edge row", {7: "0\t2\t\uff12"}, 7, "ASCII decimal"),
    ("non-ASCII digit in a frequency row", {13: "3\t\u0662"}, 13, "ASCII decimal"),
    ("edge row with 2 fields", {9: "1\t2"}, 9, "malformed edge row"),
    ("edge row with 4 fields", {10: "1\t3\t2\t2"}, 10, "malformed edge row"),
    ("frequency row with 3 fields", {13: "3\t2\t1"}, 13, "malformed frequency row"),
    # each pair keeps the table's field count: a parse of all fields at once
    # would read it as valid rows
    ("short edge row and long frequency row", {11: "4\t3", 12: "2\t2\t2"}, 11,
     "malformed edge row"),
    ("short edge row and long edge row", {9: "1\t2", 10: "1\t3\t2\t2"}, 9,
     "malformed edge row"),
    ("edge count beyond 64 bits", {8: "0\t3\t9223372036854775808"}, 8, "too large"),
    # two or three defects: the first in file order is named, whatever a
    # later line holds
    ("bad character after an out-of-range index", {7: "5\t2\t2", 13: "3\t\uff12"}, 7,
     "out of range"),
    ("bad character after a repeated edge", {7: "0\t2\t2", 8: "0\t2\t5", 9: "1\t2\t1_0"}, 8,
     "repeated edge"),
    ("bad character after a zero count", {8: "0\t3\t0", 11: "4\t3\t+1"}, 8, "at least 1"),
    # a row field over Python's 4,300-digit limit for int() is out of range
    ("edge count over the integer digit limit", {7: "0\t2\t" + "9" * 5000}, 7,
     "edge count too large in '0"),
    ("negative edge count over the integer digit limit", {7: "0\t2\t-" + "9" * 5000}, 7,
     "edge count must be at least 1, got '0"),
    ("target index over the integer digit limit", {7: "0\t" + "9" * 5000 + "\t2"}, 7,
     "node index out of range in edge row '0"),
    ("negative source index over the integer digit limit", {7: "-" + "9" * 5000 + "\t2\t2"}, 7,
     "node index out of range in edge row '-9"),
    ("frequency over the integer digit limit", {12: "2\t" + "9" * 5000}, 12,
     "frequency too large in '2"),
    ("negative frequency over the integer digit limit", {12: "2\t-" + "9" * 5000}, 12,
     "frequency must be at least 1, got '2"),
    ("frequency index over the integer digit limit", {12: "9" * 5000 + "\t2"}, 12,
     "node index out of range in frequency row '9"),
    # leading zeros count toward the limit but not toward the value
    ("zero-padded zero count over the integer digit limit", {8: "0\t3\t" + "0" * 5000}, 8,
     "edge count must be at least 1"),
    ("zero-padded index over the integer digit limit", {12: "0" * 4999 + "3\t2", 13: "2\t2"}, 13,
     r"frequency row '2\t2' out of order"),
]


@pytest.mark.parametrize(
    "edits, line, reason", [c[1:] for c in _CORRUPT_ROWS], ids=[c[0] for c in _CORRUPT_ROWS]
)
def test_load_rejects_corrupt_rows_with_location(tmp_path, toy_graph, capsys, edits, line, reason):
    # every file carries a valid checksum, so only the row checks can catch it
    lines = _toy_file_lines(tmp_path, toy_graph)
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path = _write_with_checksum(tmp_path / "corrupt.kg", lines)
    where = f"{path}:{line}: "
    with pytest.raises(GraphFormatError, match=re.escape(where) + ".*" + re.escape(reason)) as exc:
        load_graph(path)
    assert "set_int_max_str_digits" not in str(exc.value)

    empty = tmp_path / "empty.ann.jsonl"
    empty.write_text("", encoding="utf-8")
    argv = ["mine-seeds", "--annotated", str(empty), "--graph", path,
            "--out", str(tmp_path / "seeds.jsonl")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def _graph_lines(rng: random.Random, n_nodes: int, n_edges: int, n_freqs: int,
                 max_count: int) -> list[str]:
    """Lines before the trailer of a valid graph file with random rows in
    index order; node names are zero-padded, so name order is index order."""
    edges = sorted(rng.sample(range(n_nodes * n_nodes), n_edges))
    return [
        json.dumps({"magic": "seedqa-graph", "version": 1,
                    "nodes": n_nodes, "edges": n_edges, "freqs": n_freqs}),
        *(json.dumps(f"n{i:05d}") for i in range(n_nodes)),
        *(f"{e // n_nodes}\t{e % n_nodes}\t{rng.randint(1, max_count)}" for e in edges),
        *(f"{i}\t{rng.randint(1, max_count)}" for i in sorted(rng.sample(range(n_nodes), n_freqs))),
    ]


def _edit_row(rng: random.Random, rows: list[str], i: int, n_nodes: int, n_edges: int) -> None:
    """Rewrite ``rows[i]`` with one edit of a ``_CORRUPT_ROWS`` kind or a
    leading-zero pad; some edits leave the row valid.  ``rows`` holds the
    edge rows, then the frequency rows."""
    fields = rows[i].split("\t")
    f = rng.randrange(len(fields))
    edit = rng.randrange(12)
    if edit == 0:
        fields[f] = f"-{rng.randint(0, 2)}"
    elif edit == 1:
        fields[f] = str(n_nodes + rng.randint(-1, 1))
    elif edit == 2:
        fields[-1] = "0"
    elif edit == 3:  # the indices of a row in the same table, maybe this one
        other = rng.randrange(n_edges) if i < n_edges else rng.randrange(n_edges, len(rows))
        fields[:-1] = rows[other].split("\t")[:-1]
    elif edit == 4:
        fields[f] = fields[f][:1] + "_" + fields[f][1:]
    elif edit == 5:
        fields[f] = rng.choice((" {}", "{} ", "+{}")).format(fields[f])
    elif edit == 6:
        fields[f] = rng.choice("\uff12\u0662") + fields[f][1:]
    elif edit == 7:
        del fields[f]
    elif edit == 8:
        fields.insert(f, str(rng.randint(0, 9)))
    elif edit == 9:
        fields[f] = str(2**63 - rng.randint(0, 1))
    elif edit == 10:
        fields[f] = rng.choice(("", "-", "1-2", "--1"))
    else:
        fields[f] = rng.choice(("0", "00", "-0")) + fields[f]
    rows[i] = "\t".join(fields)


def _chunk_first_rows(rows: list[str], lo: int, hi: int) -> list[int]:
    """The row numbers that open a chunk after the first when the loader
    reads ``rows[lo:hi]`` as one table."""
    ends = list(accumulate(len(row) + 1 for row in rows[lo:hi]))
    firsts, pos = [], 0
    while ends and ends[-1] - pos > _CHUNK_CHARS:
        # a chunk ends with the first row whose line break is at or past
        # pos + _CHUNK_CHARS
        last = bisect_left(ends, pos + _CHUNK_CHARS + 1)
        firsts.append(lo + last + 1)
        pos = ends[last]
    return firsts


def test_load_matches_line_by_line_oracle(tmp_path):
    # random files with 1 to 3 edited rows: the loader names the oracle's
    # line with its reason, or loads the oracle's tables.
    # Every large file spans several chunks per table; one of its edits
    # lands on a row that opens a chunk, and the others come after it
    rng = random.Random(4242)
    outcomes: Counter[str] = Counter()
    for trial in range(320):
        large = trial % 20 == 0
        if large:
            n_nodes = 6000
            lines = _graph_lines(rng, n_nodes, rng.randint(5000, 9000),
                                 rng.randint(5600, 6000), 10**7)
        else:
            n_nodes = rng.randint(1, 8)
            lines = _graph_lines(rng, n_nodes, rng.randint(0, min(12, n_nodes**2)),
                                 rng.randint(1, n_nodes), 99)
        n_edges = json.loads(lines[0])["edges"]
        first = 1 + n_nodes
        rows = lines[first:]
        tables = [(0, n_edges), (n_edges, len(rows))]
        opener, n_edits = 0, rng.randint(1, 3)
        if large:
            opener = rng.choice(_chunk_first_rows(rows, *rng.choice(tables)))
            _edit_row(rng, rows, opener, n_nodes, n_edges)
            n_edits -= 1
        for _ in range(n_edits):
            _edit_row(rng, rows, rng.randrange(opener, len(rows)), n_nodes, n_edges)
        path = _write_with_checksum(tmp_path / f"g{trial}.kg", lines[:first] + rows)
        try:
            raw, freqs = line_by_line_graph_rows(path, rows, 1 + first, n_edges, n_nodes)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as err:
                load_graph(path)
            assert str(err.value) == str(exc), f"trial {trial}"
            row = int(str(exc)[len(path) + 1 :].split(":", 1)[0]) - 1 - first
            openers = _chunk_first_rows(rows, *tables[row >= n_edges])
            later = bool(openers) and row >= openers[0]
            outcomes["rejected"] += 1
            outcomes["out of order"] += str(exc).endswith("out of order")
            outcomes["in a later chunk"] += later
            outcomes["in a later frequency chunk"] += later and row >= n_edges
            outcomes["on a chunk's first row"] += row in openers
            continue
        loaded = load_graph(path)
        outcomes["loaded"] += 1
        nodes = loaded.nodes
        assert nodes == tuple(f"n{i:05d}" for i in range(n_nodes)), f"trial {trial}"
        assert loaded.raw_counts == {
            (nodes[s], nodes[t]): c for (s, t), c in raw.items()
        }, f"trial {trial}"
        assert loaded.analysis_freq == {nodes[i]: f for (i,), f in freqs.items()}, f"trial {trial}"
    assert min(outcomes.values()) >= 3 and len(outcomes) == 6, outcomes


@pytest.mark.parametrize("char", ["\uff11", "\xa0", "\u0663"], ids=["fullwidth", "nbsp", "arabic"])
def test_load_names_a_non_ascii_row_as_the_line_by_line_oracle_does(tmp_path, char):
    # a non-ASCII character is a defect wherever it falls, so every chunk
    # before the first defect is ASCII and its bytes are its characters; the
    # defect's chunk is decoded, and its row named as text at its own line
    rng = random.Random(ord(char))
    n_nodes, n_edges = 2000, 9000
    lines = _graph_lines(rng, n_nodes, n_edges, 1900, 10**5)
    first = 1 + n_nodes
    assert len(_chunk_first_rows(lines[first:], 0, n_edges)) >= 1
    for trial in range(4):
        rows = lines[first:]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(rows))
            fields = rows[i].split("\t")
            f = rng.randrange(len(fields))
            at = rng.randint(0, len(fields[f]))
            fields[f] = fields[f][:at] + char + fields[f][at + rng.randint(0, 1):]
            rows[i] = "\t".join(fields)
        path = _write_with_checksum(tmp_path / f"g{trial}.kg", lines[:first] + rows)
        with pytest.raises(GraphFormatError) as expected:
            line_by_line_graph_rows(path, rows, 1 + first, n_edges, n_nodes)
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert str(err.value) == str(expected.value), f"trial {trial}"


@pytest.mark.parametrize("table", ["edge", "frequency"])
def test_load_names_a_defect_several_chunks_in_at_its_own_line(tmp_path, table):
    # every chunk before the defect's passes whole; the defect is named at
    # its own file line, and one in the chunk after it would not be reached
    rng = random.Random(71)
    n_nodes = n_edges = 12000
    lines = _graph_lines(rng, n_nodes, n_edges, n_nodes, 10**12)
    first = 1 + n_nodes
    lo, hi = (first, first + n_edges) if table == "edge" else (first + n_edges, len(lines))
    openers = _chunk_first_rows(lines[lo:hi], 0, hi - lo)
    assert len(openers) >= 3
    lineno = lo + 1 + openers[-2] + 5
    for at, count in ((lineno, "0"), (hi, "-1")):
        lines[at - 1] = lines[at - 1].rsplit("\t", 1)[0] + "\t" + count
    what = "edge count" if table == "edge" else "frequency"
    path = _write_with_checksum(tmp_path / "g.kg", lines)
    message = f"{path}:{lineno}: {what} must be at least 1, got {lines[lineno - 1]!r}"
    with pytest.raises(GraphFormatError, match=re.escape(message) + "$"):
        load_graph(path)


def _with_count(row: str, count: int) -> str:
    return row.rsplit("\t", 1)[0] + f"\t{count}"


@pytest.mark.parametrize("where", ["first chunk", "fourth chunk", "row by row"])
def test_load_widens_the_count_table_once_at_the_first_count_past_4_bytes(
        tmp_path, monkeypatch, where):
    # the count table starts as array("i"): a count of 2^31 - 1 keeps it,
    # and one of 2^31 copies it once, with every row read before it, into an
    # array("q"), whether its chunk parses at once or is read row by row
    # (a field such as 007 sends a chunk there)
    rng = random.Random(83)
    n_nodes, n_edges = 400, 21000
    lines = _graph_lines(rng, n_nodes, n_edges, n_nodes, 99)
    first = 1 + n_nodes
    lines[first + 3] = _with_count(lines[first + 3], 2**31 - 1)
    openers = _chunk_first_rows(lines, first, first + n_edges)
    assert len(openers) >= 3
    if where == "row by row":
        lines[openers[1] + 4] = "0" + lines[openers[1] + 4]
        openers = _chunk_first_rows(lines, first, first + n_edges)
    at = {"first chunk": first + 7, "fourth chunk": openers[2] + 7,
          "row by row": openers[1] + 7}[where]
    assert first + 7 < openers[0] and openers[1] + 7 < openers[2]
    row_values, calls = graph_module._row_values, []
    monkeypatch.setattr(graph_module, "_row_values",
                        lambda *args: calls.append(args) or row_values(*args))
    for count, code in ((2**31 - 1, "i"), (2**31, "q")):
        lines[at] = _with_count(lines[at], count)
        if code == "q":
            # past the widening, a count up to 2^63 - 1 still loads
            lines[at + 2] = _with_count(lines[at + 2], 2**63 - 1)
            lines[-1] = _with_count(lines[-1], 2**40)
        path = _write_with_checksum(tmp_path / f"{code}.kg", lines)
        calls.clear()
        loaded = load_graph(path)
        rows = [row.split("\t") for row in lines[first : first + n_edges]]
        assert list(loaded._edges) == [int(s) * n_nodes + int(t) for s, t, _ in rows]
        assert list(loaded._counts) == [int(c) for *_, c in rows]
        assert (loaded._edges.typecode, loaded._counts.typecode) == ("i", code)
        assert loaded._counts.__sizeof__() == array(code).__sizeof__() + loaded._counts.itemsize * n_edges
        assert (len(calls) > 1000) == (where == "row by row")
    assert loaded.analysis_freq[json.loads(lines[int(lines[-1].split("\t")[0]) + 1])] == 2**40


@pytest.mark.parametrize("m, code", [(46340, "i"), (46341, "q")])
def test_edge_keys_take_4_bytes_while_m_squared_fits(tmp_path, m, code):
    # an edge key is at most m * m - 1, which fits in array("i") up to
    # 46,340 nodes; the builder and the loader pick the same tables
    names = [f"n{i:05d}" for i in range(m)]
    g = build_graph([make_annotated("all", names, ()),
                     make_annotated("last", names[-1:], names[-1:])])
    assert g.m == m and list(g._edges) == [m * m - 1] and list(g._counts) == [1]
    path = tmp_path / "g.kg"
    save_graph(g, str(path))
    loaded = load_graph(str(path))
    for got in (g, loaded):
        assert (got._edges.typecode, got._counts.typecode) == (code, "i")
    assert loaded._edges == g._edges and loaded.raw_counts == g.raw_counts == {
        (names[-1], names[-1]): 1}


def test_built_and_loaded_tables_hold_the_wide_tables_values(tmp_path):
    # narrow tables change no value: the builder's and the loader's equal
    # the array("q") tables of the global-counter builder, entry for entry,
    # and so do their raw counts and ranked rows
    train = _zipf_corpus(random.Random(2525), 600, 800)
    want = global_counter_build_graph(train)
    built = build_graph(train)
    path = tmp_path / "g.kg"
    save_graph(built, str(path))
    loaded = load_graph(str(path))
    assert (want._edges.typecode, want._counts.typecode) == ("q", "q")
    for g in (built, loaded):
        assert (g._edges.typecode, g._counts.typecode) == ("i", "i")
        assert list(g._edges) == list(want._edges) and list(g._counts) == list(want._counts)
        assert g.raw_counts == want.raw_counts
        assert all(ranked_row(g, node) == ranked_row(want, node) for node in want.nodes)


def test_a_graph_keeps_under_12_bytes_per_edge(tmp_path):
    # a built or loaded graph keeps its two tables at 4 bytes per entry
    # when the graph's sizes fit; at 8 bytes each they alone took 16 bytes
    # per edge.  Every node has over 100 edges, so the per-node tables
    # weigh about 1 byte per edge.  The entity sets are longer than the
    # interpreter's tuple free lists take, so no freed tuple is counted
    rng = random.Random(89)
    names = [f"n{i:03d}" for i in range(200)]
    train = [make_annotated(f"s{i}", rng.sample(names, 25), rng.sample(names, 25))
             for i in range(200)]
    tracemalloc.start()
    try:
        built = build_graph(train)
        built_kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    path = tmp_path / "g.kg"
    save_graph(built, str(path))
    tracemalloc.start()
    try:
        loaded = load_graph(str(path))
        loaded_kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    edges = built.edge_count
    assert min(hi - lo for lo, hi in map(built._row, range(built.m))) >= 100
    assert built_kept < 12 * edges, built_kept / edges
    assert loaded_kept < 12 * edges, loaded_kept / edges
    assert loaded.raw_counts == built.raw_counts


def test_load_matches_line_by_line_node_oracle(tmp_path):
    # node tables in name order with 1 to 3 edited lines: the loader names
    # the oracle's line with its reason, or loads the oracle's nodes
    rng = random.Random(5151)
    names = [*ENTITY_POOL, "aspirin", 'say "ah"', "a,b", "x]", "\\", "\u2028"]
    outcomes: Counter[str] = Counter()
    for trial in range(300):
        nodes = sorted(rng.sample(names, rng.randint(1, 12)))
        lines = [json.dumps(node, ensure_ascii=rng.random() < 0.5) for node in nodes]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            edit = rng.randrange(8)
            if edit == 0:  # not a string
                lines[i] = rng.choice(("5", "null", "true", '["a"]', '{"a": 1}', "1.5"))
            elif edit == 1:  # repeats another line, maybe itself
                lines[i] = lines[rng.randrange(len(lines))]
            elif edit == 2:  # broken JSON
                lines[i] = rng.choice(('"ab', "ab", '["a"', "'a'", '"a" "b"', "{"))
            elif edit == 3:
                lines[i] = '"a","b"'
            elif edit == 4:
                lines[i] = '"a"]'
            elif edit == 5:
                lines[i] = ""
            elif edit == 6:  # a string, but not in canonical form
                lines[i] = json.dumps(rng.choice(("ASPIRIN", " aspirin", "ａ", "")))
            else:  # padded, and as valid as before
                lines[i] = f" {lines[i]}\t"
        header = json.dumps({"magic": "seedqa-graph", "version": 1,
                             "nodes": len(lines), "edges": 1, "freqs": 1})
        path = _write_with_checksum(tmp_path / f"g{trial}.kg",
                                    [header, *lines, "0\t0\t1", "0\t1"])
        try:
            expected = line_by_line_graph_nodes(path, lines)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as err:
                load_graph(path)
            assert str(err.value) == str(exc), f"trial {trial}"
            reason = str(exc).split(": ", 1)[1]
            outcomes[next(kind for kind in ("malformed", "not a string", "canonical",
                                            "repeated", "out of order") if kind in reason)] += 1
            continue
        assert load_graph(path).nodes == tuple(expected), f"trial {trial}"
        outcomes["loaded"] += 1
    assert len(outcomes) == 6 and min(outcomes.values()) >= 10, outcomes


def test_load_names_the_line_of_one_non_canonical_node(tmp_path):
    # a saved graph whose node table gains one palette character, resealed
    # under a fresh checksum: the one-pass check over the whole table fails,
    # and the line-by-line read names that node's line
    rng = random.Random(8093)
    for trial in range(60):
        g = build_graph(random_annotated(rng, rng.randint(2, 25)))
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        lines = path.read_text(encoding="utf-8").split("\n")[:-2]
        i = rng.randrange(g.m)
        while True:
            node = g.nodes[i]
            cut = rng.randint(0, len(node))
            bad = node[:cut] + rng.choice(UNICODE_PALETTE) + node[cut:]
            try:
                if normalize_entity(bad) != bad:
                    break
            except ValueError:
                break
        lines[1 + i] = json.dumps(bad, ensure_ascii=rng.random() < 0.5)
        resealed = _write_with_checksum(tmp_path / f"r{trial}.kg", lines)
        where = f"{resealed}:{i + 2}: node entry {bad!r} not in canonical form"
        with pytest.raises(GraphFormatError, match=f"^{re.escape(where)}$"):
            load_graph(resealed)


def test_load_rejects_node_table_out_of_name_order(tmp_path):
    # the loader requires the node table in name order, as save_graph
    # writes it, so that index order breaks weight ties by name: a shuffled
    # table fails at its first entry that is below the one before it
    rng = random.Random(66)
    rejected = 0
    for trial in range(20):
        g = build_graph(random_annotated(rng, rng.randint(1, 25)))
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()[:-1]
        order = list(g.nodes)
        rng.shuffle(order)
        lines[1 : 1 + g.m] = (json.dumps(node, ensure_ascii=False) for node in order)
        shuffled = _write_with_checksum(tmp_path / f"s{trial}.kg", lines)
        bad = next((j for j in range(1, len(order)) if order[j] < order[j - 1]), None)
        if bad is None:
            assert load_graph(shuffled).nodes == g.nodes, f"trial {trial}"
            continue
        where = f"{shuffled}:{bad + 2}: node entry {order[bad]!r} out of order"
        with pytest.raises(GraphFormatError, match=re.escape(where)):
            load_graph(shuffled)
        rejected += 1
    assert rejected >= 15


@pytest.mark.parametrize("entry", ["ASPIRIN", " aspirin", ""], ids=["cased", "padded", "empty"])
def test_load_rejects_a_node_entry_not_in_canonical_form(tmp_path, capsys, entry):
    # a node the miner could offer as a seed must be canonical: the load
    # fails at the entry's line, not later at a seed without the graph's name
    header = json.dumps({"magic": "seedqa-graph", "version": 1, "nodes": 2, "edges": 1,
                         "freqs": 1})
    path = _write_with_checksum(tmp_path / "g.kg", [
        header, json.dumps(entry), json.dumps("高血压", ensure_ascii=False), "1\t0\t1", "0\t1",
    ])
    where = f"{path}:2: node entry {entry!r} not in canonical form"
    with pytest.raises(GraphFormatError, match=re.escape(where) + "$"):
        load_graph(path)

    annotated = tmp_path / "test.ann.jsonl"
    save_annotated([make_annotated("q1", {"高血压"}, set())], str(annotated))
    capsys.readouterr()
    assert main(["mine-seeds", "--annotated", str(annotated), "--graph", path,
                 "--out", str(tmp_path / "seeds.jsonl")]) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert not (tmp_path / "seeds.jsonl").exists()
