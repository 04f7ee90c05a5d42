"""Directed entity co-occurrence graph with inverse-frequency weighting.

Each training instance contributes edges from every question-side entity
to every analysis-side entity.  An edge's weight is its share of the
source's outgoing raw count, discounted by how common the target is as an
analysis entity:

    weight(i, j) = (raw(i, j) / sum_k raw(i, k)) * log10(m / (1 + freq(j)))

where m is the total node count and freq(j) counts instances whose
analysis mentions j.  Ubiquitous targets therefore contribute little or
even negative weight, and rare ones are promoted.

The graph keeps one table: per source, its ``(target, weight, raw_count)``
rows sorted by descending weight, then target, which is the neighbor list
the seed miner ranks over.  Files store counts only; weights are derived
again on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from .entities import AnnotatedInstance

_MAGIC = "seedqa-graph"
_FORMAT_VERSION = 1
# int() also takes "1_0", padded fields and non-ASCII digits; table rows
# may hold only ASCII digits, a minus sign (a negative index is reported
# as out of range), tabs and the line breaks between rows
_NOT_ROW_CHAR = re.compile(r"[^0-9\t\n-]")


class GraphFormatError(ValueError):
    """A graph file is malformed, truncated, or of an unsupported version."""


class KnowledgeGraph:
    """Immutable co-occurrence graph over canonical entity strings.

    Every edge is stored once, as a row ``(target, weight, raw_count)`` in
    its source's tuple.  Each source's rows are sorted by descending
    weight, then target; the weight is computed here, from the counts, and
    never again.  ``raw_counts`` is derived from the rows on request.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        raw_counts: dict[tuple[str, str], int],
        analysis_freq: dict[str, int],
    ):
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise ValueError("duplicate node")
        for (src, tgt), count in raw_counts.items():
            if src not in node_set or tgt not in node_set:
                raise ValueError(f"edge ({src!r}, {tgt!r}) references unknown node")
            if count < 1:
                raise ValueError(f"edge ({src!r}, {tgt!r}) has non-positive count {count}")
        for ent, freq in analysis_freq.items():
            if ent not in node_set:
                raise ValueError(f"analysis frequency references unknown node {ent!r}")
            if freq < 1:
                raise ValueError(f"analysis frequency for {ent!r} must be >= 1, got {freq}")

        self.nodes: tuple[str, ...] = tuple(nodes)
        self.analysis_freq: dict[str, int] = dict(analysis_freq)

        row_sums: dict[str, int] = defaultdict(int)
        for (src, _), count in raw_counts.items():
            row_sums[src] += count
        m = len(self.nodes)
        rows: dict[str, list[tuple[str, float, int]]] = defaultdict(list)
        for (src, tgt), count in raw_counts.items():
            idf = math.log10(m / (1 + self.analysis_freq.get(tgt, 0)))
            rows[src].append((tgt, (count / row_sums[src]) * idf, count))
        self._out: dict[str, tuple[tuple[str, float, int], ...]] = {
            src: tuple(sorted(out, key=lambda row: (-row[1], row[0])))
            for src, out in rows.items()
        }

    @property
    def m(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(out) for out in self._out.values())

    @property
    def raw_counts(self) -> dict[tuple[str, str], int]:
        """Raw count of every edge, keyed by (source, target)."""
        return {(src, tgt): count for src, out in self._out.items() for tgt, _, count in out}

    def neighbors(self, entity: str) -> tuple[tuple[str, float, int], ...]:
        """Outgoing ``(target, weight, raw_count)`` rows, heaviest first,
        ties by target.

        A node with no outgoing edges (or an unknown entity) gets ``()``;
        callers treat both the same way.
        """
        return self._out.get(entity, ())


def build_graph(train: Iterable[AnnotatedInstance]) -> KnowledgeGraph:
    """Accumulate counts over annotated training instances.

    raw(i, j) counts instances whose question side contains i and whose
    analysis side contains j; freq(j) counts instances whose analysis side
    contains j at all.  Both are per-instance (sets, not multisets), so
    repeating an entity inside one instance changes nothing.
    """
    counts: Counter[tuple[str, str]] = Counter()
    freq: Counter[str] = Counter()
    nodes: set[str] = set()
    for ann in train:
        qo = set(ann.qo_entities)
        r = set(ann.r_entities)
        nodes |= qo | r
        for tgt in r:
            freq[tgt] += 1
        for src in qo:
            for tgt in r:
                counts[(src, tgt)] += 1
    return KnowledgeGraph(tuple(sorted(nodes)), dict(counts), dict(freq))


def save_graph(graph: KnowledgeGraph, path: str) -> None:
    """Write the graph in the versioned text format.

    Layout: a JSON header line (magic, version, table sizes), one JSON
    string per node, edge rows ``src_idx<TAB>tgt_idx<TAB>raw_count``,
    frequency rows ``node_idx<TAB>freq``, then a JSON trailer with the
    SHA-256 of everything before it.  Weights are derived, so only counts
    are stored.
    """
    index = {node: i for i, node in enumerate(graph.nodes)}
    lines = [
        json.dumps(
            {
                "magic": _MAGIC,
                "version": _FORMAT_VERSION,
                "nodes": graph.m,
                "edges": graph.edge_count,
                "freqs": len(graph.analysis_freq),
            },
            ensure_ascii=False,
        )
    ]
    lines.extend(json.dumps(node, ensure_ascii=False) for node in graph.nodes)
    for i, src in enumerate(graph.nodes):
        for j, count in sorted((index[tgt], count) for tgt, _, count in graph.neighbors(src)):
            lines.append(f"{i}\t{j}\t{count}")
    for ent in sorted(graph.analysis_freq, key=index.__getitem__):
        lines.append(f"{index[ent]}\t{graph.analysis_freq[ent]}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.write(json.dumps({"sha256": digest}))
        fh.write("\n")


def load_graph(path: str) -> KnowledgeGraph:
    """Read a graph file, verifying checksum, version, and table sizes.

    Any mismatch raises GraphFormatError; a partial graph is never
    returned.  A defect in one line (the header, a node entry that is not
    a JSON string or repeats one, a row field that is not an ASCII decimal
    integer, a node index outside the node table, a count below 1, a
    repeated edge or frequency row) is reported as ``path:line: reason``
    with the 1-based file line.  Weights are recomputed from the stored
    counts.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise GraphFormatError(f"{path}: too short to be a graph file")
    trailer_line = lines[-1]
    body = "\n".join(lines[:-1]) + "\n"
    try:
        trailer = json.loads(trailer_line)
        expected = trailer["sha256"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise GraphFormatError(f"{path}: missing or malformed checksum trailer") from exc
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise GraphFormatError(f"{path}: checksum mismatch (file corrupt or truncated)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}:1: malformed header") from exc
    if not isinstance(header, dict):
        raise GraphFormatError(f"{path}:1: header is not a JSON object")
    if header.get("magic") != _MAGIC:
        raise GraphFormatError(f"{path}:1: not a graph file (bad magic)")
    if header.get("version") != _FORMAT_VERSION:
        raise GraphFormatError(
            f"{path}:1: unsupported format version {header.get('version')!r}"
        )
    for key in ("nodes", "edges", "freqs"):
        size = header.get(key)
        if type(size) is not int or size < 0:
            raise GraphFormatError(
                f"{path}:1: header field {key!r} must be a non-negative integer, got {size!r}"
            )
    n_nodes, n_edges, n_freqs = header["nodes"], header["edges"], header["freqs"]
    expected_lines = 1 + n_nodes + n_edges + n_freqs
    if len(lines) - 1 != expected_lines:
        raise GraphFormatError(
            f"{path}: expected {expected_lines} lines before trailer, got {len(lines) - 1}"
        )
    # lines[lineno - 1] is 1-based file line ``lineno``
    nodes: list[str] = []
    seen: set[str] = set()
    for lineno in range(2, 2 + n_nodes):
        try:
            node = json.loads(lines[lineno - 1])
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed node entry") from exc
        if not isinstance(node, str):
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} is not a string")
        if node in seen:
            raise GraphFormatError(f"{path}:{lineno}: repeated node entry {node!r}")
        seen.add(node)
        nodes.append(node)
    first = 2 + n_nodes
    # the table rows start after the header and node lines and their breaks
    bad = _NOT_ROW_CHAR.search(body, sum(map(len, lines[: first - 1])) + first - 1)
    if bad:
        lineno = body.count("\n", 0, bad.start()) + 1
        raise GraphFormatError(f"{path}:{lineno}: malformed row {lines[lineno - 1]!r}: "
                               "fields must be ASCII decimal integers")
    counts: dict[tuple[str, str], int] = {}
    for lineno in range(first, first + n_edges):
        row = lines[lineno - 1]
        try:
            si, ti, count = map(int, row.split("\t"))
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed edge row {row!r}") from exc
        if not (0 <= si < n_nodes and 0 <= ti < n_nodes):
            raise GraphFormatError(f"{path}:{lineno}: node index out of range in edge row {row!r}")
        if count < 1:
            raise GraphFormatError(f"{path}:{lineno}: edge count must be at least 1, got {row!r}")
        edge = (nodes[si], nodes[ti])
        if edge in counts:
            raise GraphFormatError(f"{path}:{lineno}: repeated edge row {row!r}")
        counts[edge] = count
    freq: dict[str, int] = {}
    first += n_edges
    for lineno in range(first, first + n_freqs):
        row = lines[lineno - 1]
        try:
            ni, count = map(int, row.split("\t"))
        except ValueError as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed frequency row {row!r}") from exc
        if not 0 <= ni < n_nodes:
            raise GraphFormatError(
                f"{path}:{lineno}: node index out of range in frequency row {row!r}"
            )
        if count < 1:
            raise GraphFormatError(f"{path}:{lineno}: frequency must be at least 1, got {row!r}")
        if nodes[ni] in freq:
            raise GraphFormatError(f"{path}:{lineno}: repeated frequency row {row!r}")
        freq[nodes[ni]] = count
    return KnowledgeGraph(nodes, counts, freq)
