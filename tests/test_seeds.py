from __future__ import annotations

import json
import math
import random
import re
import sys
import threading

import pytest

from seedqa.corpus import DatasetFormatError
from seedqa.graph import build_graph, load_graph, save_graph
from seedqa.seeds import (
    SeedQuery,
    SeedRecord,
    SeedResult,
    load_seed_records,
    mine_seeds,
    save_seed_records,
)

from conftest import (
    make_annotated,
    naive_graph_stats,
    oracle_seed_ranking,
    random_annotated,
    row_weights,
    sorted_pool_mine_seeds,
)


def seeds_of(graph, *members, k=10):
    return mine_seeds(graph, SeedQuery(frozenset(members)), k).seeds


def test_rank_of_present_edges(toy_graph):
    # a's list is [c, d]; b's list is [d, c]; a one-member query scores
    # each candidate by its rank alone
    assert [t for t, _, _ in toy_graph.neighbors("a")] == ["c", "d"]
    assert [t for t, _, _ in toy_graph.neighbors("b")] == ["d", "c"]
    assert seeds_of(toy_graph, "a") == (("c", 1), ("d", 2))
    assert seeds_of(toy_graph, "b") == (("d", 1), ("c", 2))


def test_rank_of_absent_edge_penalty(toy_graph):
    # c has no outgoing edges at all, so its penalty is 1: d costs 2 + 1
    assert seeds_of(toy_graph, "a", "c") == (("d", 3),)
    # an unknown member behaves like an empty neighbor list
    assert seeds_of(toy_graph, "a", "ghost") == (("c", 2), ("d", 3))
    # u ranks [p, q, r] (equal weights, so by entity) and v ranks [s]; a
    # candidate u does not reach costs 3 + 1, one v does not reach 1 + 1
    g = build_graph([
        make_annotated("i1", {"u"}, {"p", "q", "r"}),
        make_annotated("i2", {"v"}, {"s"}),
    ])
    assert [t for t, _, _ in g.neighbors("u")] == ["p", "q", "r"]
    # s and r tie at 5; s carries more incoming weight (u splits its row
    # three ways), so it comes first
    assert seeds_of(g, "u", "v") == (("p", 3), ("q", 4), ("s", 5), ("r", 5))


def test_aggregate_score_toy(toy_graph):
    assert seeds_of(toy_graph, "a", "b") == (("c", 3), ("d", 3))
    # e reaches only d, so c pays e's penalty of 2: 2 + 2
    assert seeds_of(toy_graph, "b", "e") == (("d", 2), ("c", 4))
    # x and y each sit in one of two one-row lists: 1 + 2 apiece
    g = build_graph([make_annotated("i1", {"a"}, {"x"}), make_annotated("i2", {"b"}, {"y"})])
    assert seeds_of(g, "a", "b") == (("x", 3), ("y", 3))


def test_mine_seeds_toy(toy_graph):
    result = mine_seeds(toy_graph, SeedQuery(frozenset({"a", "b"})))
    assert result.seeds == (("c", 3), ("d", 3))
    assert result.entities == ("c", "d")
    assert result.scores == (3, 3)


def test_mine_seeds_tie_breaks_by_incoming_weight():
    # u ranks [p, q], v ranks [q, p], so both candidates score 1 + 2 = 3.
    # q is the rarer analysis entity (larger idf), so its summed incoming
    # weight is higher and it must come first, beating lexicographic order.
    train = [
        make_annotated("i1", {"u"}, {"p", "q"}),
        make_annotated("i2", {"u"}, {"p"}),
        make_annotated("i3", {"v"}, {"q", "p"}),
        make_annotated("i4", {"v"}, {"q"}),
        make_annotated("i5", {"z"}, {"p"}),
        make_annotated("i6", {"w1"}, set()),
        make_annotated("i7", {"w2"}, set()),
        make_annotated("i8", {"w3"}, set()),
        make_annotated("i9", {"w4"}, set()),
    ]
    g = build_graph(train)
    assert [t for t, _, _ in g.neighbors("u")] == ["p", "q"]
    assert [t for t, _, _ in g.neighbors("v")] == ["q", "p"]
    result = mine_seeds(g, SeedQuery(frozenset({"u", "v"})), k=10)
    assert result.scores == (3, 3)
    w = row_weights(g)
    w_p = w[("u", "p")] + w[("v", "p")]
    w_q = w[("u", "q")] + w[("v", "q")]
    assert w_q > w_p
    assert result.entities == ("q", "p")


class _FixedLists:
    """Graph stand-in whose neighbor lists carry hand-picked weights."""

    def __init__(self, lists):
        self.lists = lists
        self.nodes = tuple(sorted({*lists, *(t for row in lists.values() for t, _ in row)}))
        self.m = len(self.nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}

    def neighbors(self, entity):
        return tuple((t, w, 1) for t, w in self.lists.get(entity, ()))

    def _rank(self, i):
        return tuple(self._index[t] for t, _, _ in self.neighbors(self.nodes[i]))

    def _weights(self, i, targets):
        row = {self._index[t]: w for t, w, _ in self.neighbors(self.nodes[i])}
        return {t: row[t] for t in targets if t in row}


def test_mine_seeds_sums_tie_weights_in_sorted_member_order():
    # p and q both rank-sum to 6.  Summed in member order a, b, c, d their
    # incoming weights are the same float, so p wins on the entity string;
    # summed in reverse order q's total is larger and q would come first.
    graph = _FixedLists({
        "a": (("q", 0.1), ("p", 0.05)),
        "b": (("p", 0.1), ("q", 0.05)),
        "c": (("p", 0.05),),
        "d": (("q", 0.15), ("p", 0.1)),
    })
    assert mine_seeds(graph, SeedQuery(frozenset("abcd")), k=2).seeds == (("p", 6), ("q", 6))


def test_mine_seeds_excludes_query_members(toy_graph):
    # c and d are also connected from a; query containing c must not get c back
    result = mine_seeds(toy_graph, SeedQuery(frozenset({"a", "c"})))
    assert "c" not in result.entities
    assert "a" not in result.entities


def test_mine_seeds_k_truncation(toy_graph):
    query = SeedQuery(frozenset({"a", "b"}))
    assert len(mine_seeds(toy_graph, query, k=1)) == 1
    assert mine_seeds(toy_graph, query, k=1).entities == ("c",)
    assert len(mine_seeds(toy_graph, query, k=0)) == 0
    with pytest.raises(ValueError):
        mine_seeds(toy_graph, query, k=-1)


def test_mine_seeds_empty_query_and_disconnected(toy_graph):
    assert len(mine_seeds(toy_graph, SeedQuery(frozenset()))) == 0
    # c has no outgoing edges: empty pool
    assert len(mine_seeds(toy_graph, SeedQuery(frozenset({"c"})))) == 0


def test_mine_seeds_empty_graph():
    g = build_graph([])
    result = mine_seeds(g, SeedQuery(frozenset({"x"})))
    assert result.seeds == ()


def test_mine_seeds_matches_exhaustive_oracle():
    rng = random.Random(2024)
    vocab = [f"n{i}" for i in range(15)]
    for trial in range(200):
        train = random_annotated(rng, rng.randint(1, 10), vocab=vocab)
        g = build_graph(train)
        if not g.nodes:
            continue
        query_size = rng.randint(1, min(4, g.m))
        query = set(rng.sample(list(g.nodes), query_size))
        k = rng.choice((1, 3, 10))
        expected = oracle_seed_ranking(g.nodes, naive_graph_stats(train)[3], query, k)
        got = list(mine_seeds(g, SeedQuery(frozenset(query)), k).seeds)
        assert got == expected, f"trial {trial}: {got} != {expected}"


def test_mine_seeds_scores_non_decreasing_fuzz():
    rng = random.Random(55)
    for _ in range(60):
        g = build_graph(random_annotated(rng, rng.randint(1, 10)))
        if not g.nodes:
            continue
        query = set(rng.sample(list(g.nodes), min(3, g.m)))
        result = mine_seeds(g, SeedQuery(frozenset(query)))
        scores = list(result.scores)
        assert scores == sorted(scores)
        assert not set(result.entities) & query


def test_seed_query_validates_canonical_form():
    with pytest.raises(ValueError):
        SeedQuery(frozenset({"ASPIRIN"}))
    assert SeedQuery(frozenset({"aspirin", "高血压"})).entities == {"aspirin", "高血压"}


def test_seed_result_validation():
    with pytest.raises(ValueError, match="exceed"):
        SeedResult((("a", 1), ("b", 2)), k=1)
    with pytest.raises(ValueError, match="non-decreasing"):
        SeedResult((("a", 3), ("b", 1)), k=5)
    with pytest.raises(ValueError):
        SeedResult((), k=-2)


def test_sidecar_round_trip(tmp_path, toy_graph):
    result = mine_seeds(toy_graph, SeedQuery(frozenset({"a", "b"})))
    records = [SeedRecord("q1", result, ("a", "b"))]
    path = tmp_path / "seeds.jsonl"
    save_seed_records(records, str(path))
    loaded = load_seed_records(str(path))
    assert set(loaded) == {"q1"}
    assert loaded["q1"].result.seeds == result.seeds
    assert loaded["q1"].result.k == result.k
    assert loaded["q1"].query == ("a", "b")


# (case, sidecar line 2, reason)
_BAD_SIDECAR_LINES = [
    ("fewer scores than seeds", {"seeds": ["a", "b"], "scores": [1]}, "2 seeds but 1 scores"),
    ("more scores than seeds", {"seeds": ["a"], "scores": [1, 2]}, "1 seeds but 2 scores"),
    ("seeds a string", {"seeds": "ab", "scores": [1, 2]}, "'seeds' must be a list of strings"),
    ("seed not a string", {"seeds": ["a", 7], "scores": [1, 2]},
     "'seeds' must be a list of strings"),
    ("scores strings", {"seeds": ["a"], "scores": ["1"]}, "'scores' must be a list of integers"),
    ("scores a number", {"seeds": ["a"], "scores": 1}, "'scores' must be a list of integers"),
    ("score a bool", {"seeds": ["a"], "scores": [True]}, "'scores' must be a list of integers"),
    ("score a float", {"seeds": ["a"], "scores": [1.0]}, "'scores' must be a list of integers"),
    ("k a string", {"seeds": ["a"], "scores": [1], "k": "10"}, "'k' must be an integer"),
    ("k a bool", {"seeds": [], "scores": [], "k": True}, "'k' must be an integer"),
    ("k a float", {"seeds": ["a"], "scores": [1], "k": 10.0}, "'k' must be an integer"),
]


@pytest.mark.parametrize(
    "fields, reason", [c[1:] for c in _BAD_SIDECAR_LINES], ids=[c[0] for c in _BAD_SIDECAR_LINES]
)
def test_load_seed_records_rejects_malformed_fields(tmp_path, fields, reason):
    path = tmp_path / "seeds.jsonl"
    good = {"id": "q1", "query": ["a"], "seeds": ["b"], "scores": [2], "k": 10}
    path.write_text(json.dumps(good) + "\n" + json.dumps({"id": "q2", **fields}) + "\n",
                    encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:2: {reason}")):
        load_seed_records(str(path))


def test_mine_seeds_matches_sorted_pool_miner_on_zipf_graph():
    # Zipf draws give long neighbor lists with many equal counts, so rank
    # sums tie often and the float tie-break decides
    rng = random.Random(4096)
    vocab = [f"e{i:03d}" for i in range(300)]
    zipf = [1 / (i + 1) for i in range(len(vocab))]
    analysis_only = [f"r{i:02d}" for i in range(20)]

    def draw(pool, weights, n):
        return set(rng.choices(pool, weights, k=n))

    train = [
        make_annotated(
            f"z{i}",
            draw(vocab, zipf, rng.randint(1, 6)),
            draw(vocab + analysis_only, zipf + [0.05] * 20, rng.randint(1, 6)),
        )
        for i in range(400)
    ]
    g = build_graph(train)
    assert g.edge_count > 2500
    sinks = [n for n in g.nodes if not g.neighbors(n)]
    assert sinks
    weights = naive_graph_stats(train)[3]
    for trial in range(60):
        query = set(rng.sample(g.nodes, rng.randint(1, 6)))
        if trial % 3 == 0:
            query.add(f"ghost{trial}")
        if trial % 4 == 0:
            query.add(rng.choice(sinks))
        q = SeedQuery(frozenset(query))
        for k in (0, 1, 10, 50):
            got = list(mine_seeds(g, q, k).seeds)
            assert got == sorted_pool_mine_seeds(g, weights, q, k), (trial, sorted(query), k)


def test_mine_seeds_matches_sorted_pool_miner_fuzz(tmp_path):
    # small graphs with many instances per node give zero and negative
    # idf and equal weights; half are saved and loaded again, so the miner
    # also runs on tables read from a file
    rng = random.Random(7077)
    seen = {"loaded": 0, "zero idf": 0, "negative idf": 0, "equal weights": 0,
            "k beyond pool": 0}
    for trial in range(150):
        vocab = [f"v{i}" for i in range(rng.randint(4, 12))]
        train = random_annotated(rng, rng.randint(1, 30), vocab=vocab)
        m, _, freq, weights = naive_graph_stats(train)
        g = build_graph(train)
        if trial % 2:
            path = tmp_path / f"g{trial}.kg"
            save_graph(g, str(path))
            g = load_graph(str(path))
            seen["loaded"] += 1
        idf = [math.log10(m / (1 + freq.get(node, 0))) for node in g.nodes]
        seen["zero idf"] += 0.0 in idf
        seen["negative idf"] += min(idf) < 0
        row_values = [[w for t, w, _ in g.neighbors(node)] for node in g.nodes]
        seen["equal weights"] += any(len(set(row)) < len(row) for row in row_values)
        sinks = [node for node in g.nodes if not g.neighbors(node)]
        for _ in range(4):
            query = set(rng.sample(g.nodes, rng.randint(1, min(5, g.m))))
            if rng.random() < 0.3:
                query.add(f"ghost{rng.randrange(3)}")
            if sinks and rng.random() < 0.3:
                query.add(rng.choice(sinks))
            q = SeedQuery(frozenset(query))
            pool = len(sorted_pool_mine_seeds(g, weights, q, g.m))
            for k in (0, 1, 3, pool, pool + 5):
                got = mine_seeds(g, q, k)
                expected = sorted_pool_mine_seeds(g, weights, q, k)
                assert list(got.seeds) == expected, (trial, sorted(query), k)
                seen["k beyond pool"] += k > pool > 0
    assert min(seen.values()) >= 5, seen


@pytest.mark.concurrency
def test_mine_seeds_concurrent_on_cold_graph_is_race_free(tmp_path):
    # eight threads mine overlapping queries on one freshly loaded graph,
    # so they rank the same cold sources at once; every result must equal
    # the single-thread one
    rng = random.Random(4711)
    vocab = [f"e{i:03d}" for i in range(120)]
    path = tmp_path / "g.kg"
    save_graph(build_graph(random_annotated(rng, 300, vocab)), str(path))
    reference = load_graph(str(path))
    queries = [SeedQuery(frozenset(rng.sample(vocab[:40], rng.randint(2, 8)))) for _ in range(40)]
    expected = [mine_seeds(reference, q, 10) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            cold = load_graph(str(path))
            barrier = threading.Barrier(8, timeout=30)
            results: list[list | None] = [None] * 8

            def mine(slot: int) -> None:
                barrier.wait()
                # each thread starts at its own query and wraps around
                got: list = [None] * len(queries)
                for j in range(slot * 5, slot * 5 + len(queries)):
                    got[j % len(queries)] = mine_seeds(cold, queries[j % len(queries)], 10)
                results[slot] = got

            threads = [threading.Thread(target=mine, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(got == expected for got in results)
    finally:
        sys.setswitchinterval(interval)
