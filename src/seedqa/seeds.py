"""Knowledge seed mining by rank aggregation over graph neighborhoods.

Given a question's entity set X, every entity reachable from X gets one
rank per member x: its 1-based position in x's weight-sorted neighbor
list, or |neighbors(x)| + 1 when x does not point at it.  Candidates are
ordered by the sum of those ranks (lower is better); the finite penalty
keeps sums comparable when some member has no edge to the candidate.

The miner reads each member's neighbor list once and keeps the top k in a
bounded heap; tie-break weights are summed in sorted member order.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Sequence

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


def mine_seeds(graph: KnowledgeGraph, query: SeedQuery, k: int = DEFAULT_K) -> SeedResult:
    """Top-k candidates by ascending aggregate score.

    The candidate pool is the union of the query members' neighbor targets
    minus the query itself.  Ties break by descending total incoming edge
    weight from the query, then ascending entity string, so results are
    fully deterministic.  An empty query or pool gives an empty result.

    One pass over the members' neighbor lists adds, per candidate, its rank
    minus that member's penalty to the sum of all penalties; weights are
    added in sorted member order so float tie-breaks do not move.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    base = 0
    delta: dict[str, int] = {}
    wsum: dict[str, float] = {}
    for x in sorted(query.entities):
        targets = graph.neighbors(x)
        penalty = len(targets) + 1
        base += penalty
        for rank, (tgt, w, _) in enumerate(targets, 1):
            delta[tgt] = delta.get(tgt, 0) + rank - penalty
            wsum[tgt] = wsum.get(tgt, 0.0) + w
    pool = [e for e in delta if e not in query.entities]
    top = heapq.nsmallest(k, pool, key=lambda e: (delta[e], -wsum[e], e))
    return SeedResult(tuple((e, base + delta[e]) for e in top), k)


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
