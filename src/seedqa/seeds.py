"""Knowledge seed mining by rank aggregation over graph neighborhoods.

Given a question's entity set X, every entity reachable from X gets one
rank per member x: its 1-based position in x's weight-sorted neighbor
list, or |neighbors(x)| + 1 when x does not point at it.  Candidates are
ordered by the sum of those ranks (lower is better); the finite penalty
keeps sums comparable when some member has no edge to the candidate.

The miner works on integer node indices: it reads each member's cached
ranking once into a dense per-node sum, finds the k-th smallest sum, and
keys only the candidates at or below it; tie-break weights are summed in
sorted member order, and node names are looked up for those candidates
alone.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import DEFAULT_K, json_field, read_jsonl, write_whole
from .entities import normalize_entity
from .graph import KnowledgeGraph


@dataclass
class SeedQuery:
    """Question-side entity set the miner aggregates over."""

    entities: frozenset[str]

    def __post_init__(self) -> None:
        for ent in self.entities:
            if ent != normalize_entity(ent):
                raise ValueError(f"query entity not in canonical form: {ent!r}")


@dataclass
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

    One pass over the members' ranked target indices adds, per candidate,
    its rank minus that member's penalty to the sum of all penalties.  Only
    candidates at or below the k-th smallest sum are keyed; their weights
    are added in sorted member order so float tie-breaks do not move.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    members = [graph._index.get(x) for x in sorted(query.entities)]
    ranked = [() if i is None else graph._rank(i) for i in members]
    base = 0
    delta = [0] * graph.m
    for ids in ranked:
        penalty = len(ids) + 1
        base += penalty
        for score, t in enumerate(ids, 1 - penalty):
            delta[t] += score
    pool = set().union(*ranked).difference(members)
    top = heapq.nsmallest(k, map(delta.__getitem__, pool))
    if not top:
        return SeedResult((), k)
    finalists = [t for t in pool if delta[t] <= top[-1]]
    wsum = dict.fromkeys(finalists, 0.0)
    for i, ids in zip(members, ranked):
        if ids:
            for t, w in graph._weights(i, finalists).items():
                wsum[t] += w
    nodes = graph.nodes
    keys = sorted((delta[t], -wsum[t], nodes[t]) for t in finalists)[:k]
    return SeedResult(tuple((name, base + d) for d, _, name in keys), k)


@dataclass
class SeedRecord:
    """One mined result keyed by instance id, as stored in sidecar files."""

    instance_id: str
    result: SeedResult
    query: tuple[str, ...] = field(default_factory=tuple)


def save_seed_records(records: Sequence[SeedRecord], path: str) -> None:
    """Sidecar JSONL: {"id", "query", "seeds", "scores", "k"} per line,
    written whole or not at all."""
    write_whole(path, (
        json.dumps(
            {
                "id": rec.instance_id,
                "query": sorted(rec.query),
                "seeds": list(rec.result.entities),
                "scores": list(rec.result.scores),
                "k": rec.result.k,
            },
            ensure_ascii=False,
        ) + "\n"
        for rec in records
    ))


def _parse_seed_record(rec: dict) -> SeedRecord:
    seeds = json_field(rec, "seeds", "a list of strings")
    scores = json_field(rec, "scores", "a list of integers")
    if len(seeds) != len(scores):
        raise ValueError(f"{len(seeds)} seeds but {len(scores)} scores")
    k = json_field(rec, "k", "an integer", DEFAULT_K)
    query = tuple(json_field(rec, "query", "a list of strings", ()))
    result = SeedResult(tuple(zip(seeds, scores)), k)
    return SeedRecord(str(json_field(rec, "id", "a string or an integer")), result, query)


def load_seed_records(path: str) -> dict[str, SeedRecord]:
    """Sidecar records by instance id; an id that repeats with a different
    record raises DatasetFormatError naming ``path:line``."""
    records: dict[str, SeedRecord] = {}

    def add(rec: dict) -> None:
        seed = _parse_seed_record(rec)
        if records.setdefault(seed.instance_id, seed) != seed:
            raise ValueError(f"id {seed.instance_id!r} repeats with a different record")

    read_jsonl(path, add)
    return records
