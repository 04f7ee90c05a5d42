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
from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest

import seedqa.corpus as corpus_module
import seedqa.graph as graph_module
from seedqa.cli import main
from seedqa.graph import _CHUNK_CHARS, GraphFormatError, build_graph, load_graph, save_graph
from seedqa.seeds import SeedQuery, mine_seeds

from conftest import (
    DEEP_JSON,
    ENTITY_POOL,
    line_by_line_graph_nodes,
    line_by_line_graph_rows,
    make_annotated,
    naive_graph_stats,
    random_annotated,
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
    assert "b" not in [t for t, _, _ in toy_graph.neighbors("a")]


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
    assert toy_graph.neighbors("a") == (("c", W_AC, 2), ("d", W_AD, 1))
    assert toy_graph.neighbors("b") == (("d", W_BD, 2), ("c", W_BC, 1))


def test_neighbors_tie_breaks_lexicographically():
    # two targets with identical counts and frequencies tie on weight
    train = [make_annotated("i1", {"x"}, {"n2", "n1"})]
    g = build_graph(train)
    assert [t for t, _, _ in g.neighbors("x")] == ["n1", "n2"]


def test_neighbors_of_sink_and_unknown(toy_graph):
    assert toy_graph.neighbors("c") == ()
    assert toy_graph.neighbors("missing") == ()


def test_empty_graph():
    g = build_graph([])
    assert g.m == 0
    assert g.edge_count == 0
    assert g.neighbors("anything") == ()


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
            assert list(g.neighbors(src)) == expected_rows, f"trial {trial} source {src}"


def test_save_load_round_trip(tmp_path, toy_graph):
    path = tmp_path / "g.kg"
    save_graph(toy_graph, str(path))
    loaded = load_graph(str(path))
    assert loaded.nodes == toy_graph.nodes
    assert loaded.raw_counts == toy_graph.raw_counts
    assert loaded.analysis_freq == toy_graph.analysis_freq
    assert all(loaded.neighbors(n) == toy_graph.neighbors(n) for n in toy_graph.nodes)
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
            assert loaded.neighbors(node) == g.neighbors(node), f"trial {trial}: {node}"
        # every row holds exactly its source's edges
        rows = {(s, t): c for s in loaded.nodes for t, _, c in loaded.neighbors(s)}
        assert rows == g.raw_counts, f"trial {trial}"
        if trial == 25:
            assert g.nodes[0] == first and g.nodes[-1] == last
            assert loaded.neighbors(first) == () and loaded.neighbors(last)
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


def test_load_rejects_non_graph_file(tmp_path):
    path = tmp_path / "not.kg"
    path.write_text("hello\nworld\n", encoding="utf-8")
    with pytest.raises(GraphFormatError):
        load_graph(str(path))


def test_save_graph_writes_v1_bytes(tmp_path, toy_train):
    # question entities come from the front of the vocabulary and analysis
    # entities from the back, so most graphs have analysis-only nodes; an
    # instance without analysis entities leaves question-side sinks
    rng = random.Random(808)
    vocab = [*ENTITY_POOL, "aspirin", "x-ray", 'say "ah"']
    corpora = [toy_train]
    for c in range(50):
        corpora.append([
            make_annotated(
                f"v{c}.{i}",
                set(rng.sample(vocab[:12], rng.randint(0, 3))),
                set(rng.sample(vocab[6:], rng.randint(0, 3))),
            )
            for i in range(rng.randint(0, 8))
        ])
    question_sinks = analysis_only = 0
    for trial, train in enumerate(corpora):
        g = build_graph(train)
        path = tmp_path / f"g{trial}.kg"
        save_graph(g, str(path))
        assert path.read_bytes() == v1_graph_bytes(train), f"trial {trial}"
        question_side = {e for ann in train for e in ann.qo_entities}
        question_sinks += any(not g.neighbors(n) for n in question_side)
        analysis_only += any(n not in question_side for n in g.nodes)
    assert question_sinks >= 5 and analysis_only >= 5


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


def test_load_accepts_leading_zeros(tmp_path, toy_graph):
    # int() reads "007" as 7, and so does the loader
    lines = _toy_file_lines(tmp_path, toy_graph)
    lines[6], lines[11] = "00\t002\t02", "02\t2"
    loaded = load_graph(_write_with_checksum(tmp_path / "zeros.kg", lines))
    assert loaded.raw_counts == toy_graph.raw_counts
    assert loaded.analysis_freq == toy_graph.analysis_freq
    assert all(loaded.neighbors(n) == toy_graph.neighbors(n) for n in toy_graph.nodes)


@pytest.mark.concurrency
def test_neighbors_concurrent_first_use_is_race_free(tmp_path):
    # eight threads rank the same cold sources at once, switching as often
    # as the interpreter allows; every read, including the repeated ones
    # that may find another thread's cache entry, must see the
    # single-thread rows
    rng = random.Random(99)
    vocab = [f"e{i:03d}" for i in range(120)]
    path = tmp_path / "g.kg"
    save_graph(build_graph(random_annotated(rng, 300, vocab)), str(path))
    reference = load_graph(str(path))
    sources = [node for node in reference.nodes if reference.neighbors(node)]
    expected = [reference.neighbors(node) for node in sources for _ in range(3)]
    assert len(sources) >= 100
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cold = load_graph(str(path))
            barrier = threading.Barrier(8, timeout=30)
            results: list[list | None] = [None] * 8

            def rank(slot: int) -> None:
                barrier.wait()
                results[slot] = [cold.neighbors(node) for node in sources for _ in range(3)]

            threads = [threading.Thread(target=rank, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(got == expected for got in results)
            assert [cold.neighbors(node) for node in sources for _ in range(3)] == expected
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
    with pytest.raises(GraphFormatError, match=re.escape(where) + ".*" + re.escape(reason)):
        load_graph(path)

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
            edit = rng.randrange(7)
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
            outcomes[next(kind for kind in ("malformed", "not a string", "repeated",
                                            "out of order") if kind in reason)] += 1
            continue
        assert load_graph(path).nodes == tuple(expected), f"trial {trial}"
        outcomes["loaded"] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 10, outcomes


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
