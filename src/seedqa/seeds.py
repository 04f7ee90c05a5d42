"""Knowledge seed mining by rank aggregation over graph neighborhoods.

Given a question's entity set X, every entity reachable from X gets one
rank per member x: its 1-based position in x's weight-sorted neighbor
list, or |neighbors(x)| + 1 when x does not point at it.  Candidates are
ordered by the sum of those ranks (lower is better); the finite penalty
keeps sums comparable when some member has no edge to the candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import read_jsonl
from .entities import normalize_entity
from .graph import KnowledgeGraph

DEFAULT_K = 10


@dataclass(frozen=True)
class SeedQuery:
    """Question-side entity set the miner aggregates over."""

    entities: frozenset[str]

    def __post_init__(self) -> None:
        for ent in self.entities:
            if ent != normalize_entity(ent):
                raise ValueError(f"query entity not in canonical form: {ent!r}")

    @classmethod
    def from_raw(cls, terms: Iterable[str]) -> "SeedQuery":
        return cls(frozenset(normalize_entity(t) for t in terms))


@dataclass(frozen=True)
class SeedResult:
    """Mined seeds in rank order with their aggregate scores."""

    seeds: tuple[tuple[str, int], ...]
    k: int = DEFAULT_K

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if len(self.seeds) > self.k:
            raise ValueError(f"{len(self.seeds)} seeds exceed k={self.k}")
        scores = [s for _, s in self.seeds]
        if scores != sorted(scores):
            raise ValueError("seed scores must be non-decreasing")

    @property
    def entities(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.seeds)

    @property
    def scores(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.seeds)

    def __len__(self) -> int:
        return len(self.seeds)


def rank_of(graph: KnowledgeGraph, source: str, target: str) -> int:
    """Rank of ``target`` in ``source``'s neighbor list.

    1-based; an absent edge (including an unknown source) costs
    |neighbors(source)| + 1, a finite stand-in for "not ranked" that still
    exceeds every real rank.
    """
    neighbors = graph.neighbors(source)
    pos = neighbors.rank_of(target)
    return pos if pos is not None else len(neighbors) + 1


def aggregate_score(graph: KnowledgeGraph, query: SeedQuery, candidate: str) -> int:
    """Sum of ranks of ``candidate`` across all query members."""
    if not query.entities:
        raise ValueError("cannot score against an empty query")
    return sum(rank_of(graph, x, candidate) for x in query.entities)


def mine_seeds(graph: KnowledgeGraph, query: SeedQuery, k: int = DEFAULT_K) -> SeedResult:
    """Top-k candidates by ascending aggregate score.

    The candidate pool is the union of the query members' neighbor targets
    minus the query itself.  Ties break by descending total incoming edge
    weight from the query, then ascending entity string, so results are
    fully deterministic.  An empty query or pool gives an empty result.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    members = sorted(query.entities)
    rank_maps: dict[str, dict[str, int]] = {}
    list_sizes: dict[str, int] = {}
    pool: set[str] = set()
    for x in members:
        neighbors = graph.neighbors(x)
        rank_maps[x] = {tgt: pos for pos, (tgt, _) in enumerate(neighbors.targets, 1)}
        list_sizes[x] = len(neighbors)
        pool.update(rank_maps[x])
    pool -= query.entities

    def score(entity: str) -> int:
        return sum(
            rank_maps[x].get(entity, list_sizes[x] + 1) for x in members
        )

    def incoming_weight(entity: str) -> float:
        return sum(
            graph.weights.get((x, entity), 0.0) for x in members
        )

    ordered = sorted(pool, key=lambda e: (score(e), -incoming_weight(e), e))
    top = ordered[:k]
    return SeedResult(tuple((e, score(e)) for e in top), k)


@dataclass(frozen=True)
class SeedRecord:
    """One mined result keyed by instance id, as stored in sidecar files."""

    instance_id: str
    result: SeedResult
    query: tuple[str, ...] = field(default_factory=tuple)


def save_seed_records(records: Sequence[SeedRecord], path: str) -> None:
    """Sidecar JSONL: {"id", "query", "seeds", "scores", "k"} per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "id": rec.instance_id,
                        "query": sorted(rec.query),
                        "seeds": list(rec.result.entities),
                        "scores": list(rec.result.scores),
                        "k": rec.result.k,
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def _parse_seed_record(rec: dict) -> SeedRecord:
    seeds = tuple(zip(rec["seeds"], rec["scores"]))
    return SeedRecord(
        rec["id"], SeedResult(seeds, rec.get("k", DEFAULT_K)), tuple(rec.get("query", ()))
    )


def load_seed_records(path: str) -> dict[str, SeedRecord]:
    return {rec.instance_id: rec for rec in read_jsonl(path, _parse_seed_record)}
