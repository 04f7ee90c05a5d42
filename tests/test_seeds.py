from __future__ import annotations

import random

import pytest

from seedqa.graph import NeighborList, build_graph
from seedqa.seeds import (
    SeedQuery,
    SeedRecord,
    SeedResult,
    aggregate_score,
    load_seed_records,
    mine_seeds,
    rank_of,
    save_seed_records,
)

from conftest import make_annotated, oracle_seed_ranking, random_annotated, sorted_pool_mine_seeds


def test_rank_of_present_edges(toy_graph):
    # a's list is [c, d]; b's list is [d, c]
    assert rank_of(toy_graph, "a", "c") == 1
    assert rank_of(toy_graph, "a", "d") == 2
    assert rank_of(toy_graph, "b", "d") == 1
    assert rank_of(toy_graph, "b", "c") == 2


def test_rank_of_absent_edge_penalty(toy_graph):
    # a has 2 neighbors, so anything unranked costs 3
    assert rank_of(toy_graph, "a", "e") == 3
    # c has no outgoing edges at all: penalty is 1
    assert rank_of(toy_graph, "c", "a") == 1
    # unknown source behaves like an empty neighbor list
    assert rank_of(toy_graph, "ghost", "a") == 1


def test_aggregate_score_toy(toy_graph):
    query = SeedQuery(frozenset({"a", "b"}))
    assert aggregate_score(toy_graph, query, "c") == 3
    assert aggregate_score(toy_graph, query, "d") == 3
    # e is in neither list: 3 + 3
    assert aggregate_score(toy_graph, query, "e") == 6


def test_aggregate_score_rejects_empty_query(toy_graph):
    with pytest.raises(ValueError):
        aggregate_score(toy_graph, SeedQuery(frozenset()), "c")


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
    assert [t for t, _ in g.neighbors("u").targets] == ["p", "q"]
    assert [t for t, _ in g.neighbors("v").targets] == ["q", "p"]
    result = mine_seeds(g, SeedQuery(frozenset({"u", "v"})), k=10)
    assert result.scores == (3, 3)
    w_p = g.weights[("u", "p")] + g.weights[("v", "p")]
    w_q = g.weights[("u", "q")] + g.weights[("v", "q")]
    assert w_q > w_p
    assert result.entities == ("q", "p")


class _FixedLists:
    """Graph stand-in whose neighbor lists carry hand-picked weights."""

    def __init__(self, lists):
        self.lists = lists
        self.weights = {(x, t): w for x, lst in lists.items() for t, w in lst}

    def neighbors(self, entity):
        return NeighborList(entity, self.lists.get(entity, ()))


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
        expected = oracle_seed_ranking(g.nodes, g.weights, query, k)
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
    assert SeedQuery.from_raw(["ASPIRIN", " 高血压 "]).entities == {"aspirin", "高血压"}


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
    sinks = [n for n in g.nodes if not g.neighbors(n).targets]
    assert sinks
    for trial in range(60):
        query = set(rng.sample(g.nodes, rng.randint(1, 6)))
        if trial % 3 == 0:
            query.add(f"ghost{trial}")
        if trial % 4 == 0:
            query.add(rng.choice(sinks))
        q = SeedQuery(frozenset(query))
        for k in (0, 1, 10, 50):
            got = list(mine_seeds(g, q, k).seeds)
            assert got == sorted_pool_mine_seeds(g, q, k), (trial, sorted(query), k)
