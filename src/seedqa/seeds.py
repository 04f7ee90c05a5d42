"""Knowledge seed mining by rank aggregation over graph neighborhoods.

Given a question's entity set X, every entity reachable from X gets one
rank per member x: its 1-based position in x's weight-sorted neighbor
list, or that list's length + 1 when x does not point at it.  Candidates are
ordered by the sum of those ranks (lower is better); the finite penalty
keeps sums comparable when some member has no edge to the candidate.

The miner works on integer node indices and answers the top-k query with
Fagin, Lotem and Naor's threshold algorithm: it reads the members' cached
rankings from the head, scores each candidate it meets exactly by one rank
lookup per member, and stops once no candidate it has not met can reach
the k-th smallest score.  Tie-break weights are summed in sorted member
order for finalists whose scores tie, and node names are looked up for the
finalists alone.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable

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
    """Mined seeds in rank order with their aggregate scores; each seed is a
    distinct entity in canonical form, as the miner yields them."""

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
        seen: set[str] = set()
        for ent, _ in self.seeds:
            if ent in seen:
                raise ValueError(f"repeated seed entity {ent!r}")
            if ent != normalize_entity(ent):
                raise ValueError(f"seed entity not in canonical form: {ent!r}")
            seen.add(ent)

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

    The members' rankings are read to a depth ``d`` that starts at ``k``
    and doubles each round, up to the longest ranking.  Each candidate met
    for the first time is scored exactly.  One not met yet sits below rank
    ``d`` in every ranking that holds it and pays the penalty elsewhere, so
    it scores at least ``sum(min(d + 1, len + 1))`` over the members; once
    the k-th smallest score met is below that bound, none can reach or tie
    it and the miner stops.  Tie-break weights are summed, in sorted member
    order, only for finalists whose scores tie.  In the worst case, ``k``
    at least the pool size, the first round reads every ranking and scores
    the whole pool with |X| rank lookups per candidate.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    members = [graph._index.get(x) for x in sorted(query.entities)]
    ranks = [{} if i is None else graph._rank(i) for i in members]
    penalties = [len(r) + 1 for r in ranks]
    longest = max(penalties, default=1) - 1
    score: dict[int, int] = {}
    top: list[int] = []
    depth = 0
    while k and depth < longest:
        depth, read = min(2 * depth or k, longest), depth
        new = set().union(*(islice(r, read, depth) for r in ranks)).difference(score, members)
        score.update(zip(new, map(sum, zip(*[map(r.get, new, repeat(p))
                                             for r, p in zip(ranks, penalties)]))))
        top = heapq.nsmallest(k, score.values())
        if len(top) == k and top[-1] < sum(map(min, repeat(depth + 1), penalties)):
            break
    if not top:
        return SeedResult((), k)
    finalists = [t for t, s in score.items() if s <= top[-1]]
    ties = Counter(map(score.__getitem__, finalists))
    wsum = {t: 0.0 for t in finalists if ties[score[t]] > 1}
    for i, r in zip(members, ranks):
        if r and wsum:
            for t, w in graph._weights(i, wsum).items():
                wsum[t] += w
    nodes = graph.nodes
    keys = sorted((score[t], -wsum.get(t, 0.0), nodes[t]) for t in finalists)[:k]
    return SeedResult(tuple((name, s) for s, _, name in keys), k)


@dataclass
class SeedRecord:
    """One mined result keyed by instance id, as stored in sidecar files."""

    instance_id: str
    result: SeedResult
    query: tuple[str, ...] = field(default_factory=tuple)


def save_seed_records(records: Iterable[SeedRecord], path: str) -> None:
    """Sidecar JSONL: {"id", "query", "seeds", "scores", "k"} per line,
    written whole or not at all.  ``records`` may be a lazy stream: each
    record is written as it is taken."""
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
