"""Directed entity co-occurrence graph with inverse-frequency weighting.

Each training instance contributes edges from every question-side entity
to every analysis-side entity.  An edge's weight is its share of the
source's outgoing raw count, discounted by how common the target is as an
analysis entity:

    weight(i, j) = (raw(i, j) / sum_k raw(i, k)) * log10(m / (1 + freq(j)))

where m is the total node count and freq(j) counts instances whose
analysis mentions j.  Ubiquitous targets therefore contribute little or
even negative weight, and rare ones are promoted.

The graph is stored as flat integer tables: every edge once, as the key
``source_index * m + target_index`` in one ascending table, a raw count
beside each key, and one idf value per node.  Nodes are
indexed in name order, so index order breaks weight ties by name.  A
source's target indices, sorted by descending weight and then target
index, are computed the first time the miner or ``neighbors`` asks for
them and cached; a run that touches a few hundred sources never ranks the
rest.  Files store counts only, in the order ``save_graph`` writes them:
nodes by name, rows by index.  ``load_graph`` parses the node table as one
JSON array and the row tables a chunk of whole rows at a time, and reads
only a part that fails a check again, line by line, to name the first
defect in file order.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import chain, islice, repeat
from operator import add, lt, mul, sub, truediv
from typing import Iterable, Sequence

from .corpus import write_whole
from .entities import AnnotatedInstance

_MAGIC = "seedqa-graph"
_FORMAT_VERSION = 1
# what is left of a well-formed row once its digits and signs are deleted
_DROP_NUMBERS = str.maketrans("", "", "0123456789-")
# row tables are parsed this many characters (whole rows) at a time
_CHUNK_CHARS = 1 << 16
# the largest count an array("q") table holds
_MAX_COUNT = (1 << 63) - 1


class GraphFormatError(ValueError):
    """A graph file is malformed, truncated, or of an unsupported version."""


class KnowledgeGraph:
    """Immutable co-occurrence graph over canonical entity strings.

    ``nodes`` is the node table, in name order; an edge is the integer key
    ``source_index * m + target_index``.  The constructor takes every edge
    once, in ascending key order, as ``_edges``, with its raw count at the
    same position of ``_counts``, and keeps both tables as given.  The
    builder and the loader check the tables; the constructor trusts them.
    Weights are computed per source, when it is first ranked.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        edges: array,
        counts: array,
        analysis_freq: dict[str, int],
    ):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.analysis_freq: dict[str, int] = analysis_freq
        m = len(self.nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        self._edges = edges
        self._counts = counts
        self._idf = [math.log10(m / (1 + analysis_freq.get(node, 0))) for node in self.nodes]
        # source index -> its ranked target indices, filled on first use; two
        # threads may rank the same source at once, and either equal tuple
        # may stay
        self._ranked: dict[int, tuple[int, ...]] = {}

    @property
    def m(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _row(self, i: int) -> tuple[int, int]:
        """The table slice ``lo:hi`` of source ``i``'s edges."""
        lo = bisect_left(self._edges, i * self.m)
        return lo, bisect_left(self._edges, (i + 1) * self.m, lo)

    @property
    def raw_counts(self) -> dict[tuple[str, str], int]:
        """Raw count of every edge, keyed by (source, target)."""
        nodes = self.nodes
        return {
            (nodes[s], nodes[t]): count
            for (s, t), count in zip(map(divmod, self._edges, repeat(self.m)), self._counts)
        }

    def _rank(self, i: int) -> tuple[int, ...]:
        """Source ``i``'s target indices, heaviest first, ties by target
        name; computed on the first call for each source and cached."""
        ids = self._ranked.get(i)
        if ids is None:
            lo, hi = self._row(i)
            targets = list(map(sub, self._edges[lo:hi], repeat(i * self.m)))
            counts = self._counts[lo:hi]
            total = sum(counts)
            # (count / total) * idf[t], as in _weights
            weight = dict(zip(targets, map(mul, map(truediv, counts, repeat(total)),
                                           map(self._idf.__getitem__, targets))))
            # stable, so equal weights keep the index order, which is name order
            targets.sort(key=weight.__getitem__, reverse=True)
            ids = self._ranked[i] = tuple(targets)
        return ids

    def _weights(self, i: int, targets: Iterable[int]) -> dict[int, float]:
        """The weight of the edge from source ``i`` to each of ``targets``
        that it points at, keyed by target index."""
        lo, hi = self._row(i)
        edges, counts, idf, base = self._edges, self._counts, self._idf, i * self.m
        total = sum(counts[lo:hi])
        out = {}
        for t in targets:
            pos = bisect_left(edges, base + t, lo, hi)
            if pos < hi and edges[pos] == base + t:
                out[t] = (counts[pos] / total) * idf[t]
        return out

    def neighbors(self, entity: str) -> tuple[tuple[str, float, int], ...]:
        """Outgoing ``(target, weight, raw_count)`` rows, heaviest first,
        ties by target.

        A node with no outgoing edges (or an unknown entity) gets ``()``;
        callers treat both the same way.  The order is the cached ranking
        the miner reads.
        """
        i = self._index.get(entity)
        if i is None:
            return ()
        ids = self._rank(i)
        lo, hi = self._row(i)
        count = dict(zip(map(sub, self._edges[lo:hi], repeat(i * self.m)), self._counts[lo:hi]))
        weight = self._weights(i, ids)
        return tuple((self.nodes[t], weight[t], count[t]) for t in ids)


def build_graph(train: Iterable[AnnotatedInstance]) -> KnowledgeGraph:
    """Accumulate counts over annotated training instances.

    raw(i, j) counts instances whose question side contains i and whose
    analysis side contains j; freq(j) counts instances whose analysis side
    contains j at all.  Both are per-instance (sets, not multisets), so
    repeating an entity inside one instance changes nothing.
    """
    sides = [(set(ann.qo_entities), set(ann.r_entities)) for ann in train]
    nodes = sorted(set().union(*chain.from_iterable(sides)))
    index = {node: i for i, node in enumerate(nodes)}
    m = len(nodes)
    counts: Counter[int] = Counter()
    freq: Counter[str] = Counter()
    for qo, r in sides:
        freq.update(r)
        targets = [index[tgt] for tgt in r]
        for src in qo:
            counts.update(map(add, repeat(index[src] * m), targets))
    edges = array("q", sorted(counts))
    return KnowledgeGraph(nodes, edges, array("q", map(counts.__getitem__, edges)), dict(freq))


def save_graph(graph: KnowledgeGraph, path: str) -> None:
    """Write the graph in the versioned text format.

    Layout: a JSON header line (magic, version, table sizes), one JSON
    string per node, edge rows ``src_idx<TAB>tgt_idx<TAB>raw_count``,
    frequency rows ``node_idx<TAB>freq``, then a JSON trailer with the
    SHA-256 of everything before it.  Weights are derived, so only counts
    are stored.  Rows are written in (source, target) index order, and the
    file is replaced whole or not at all.
    """
    header = json.dumps(
        {
            "magic": _MAGIC,
            "version": _FORMAT_VERSION,
            "nodes": graph.m,
            "edges": graph.edge_count,
            "freqs": len(graph.analysis_freq),
        },
        ensure_ascii=False,
    )
    index, m, edges, counts = graph._index, graph.m, graph._edges, graph._counts
    # row by row, so each edge formats only its target and count
    rows = (map(f"{i}\t{{}}\t{{}}\n".format, map(sub, edges[lo:hi], repeat(i * m)), counts[lo:hi])
            for i, (lo, hi) in enumerate(map(graph._row, range(m))))
    body = "".join(chain(
        (header, "\n"),
        (json.dumps(node, ensure_ascii=False) + "\n" for node in graph.nodes),
        chain.from_iterable(rows),
        (f"{index[ent]}\t{graph.analysis_freq[ent]}\n"
         for ent in sorted(graph.analysis_freq)),
    ))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    write_whole(path, (body, json.dumps({"sha256": digest}), "\n"))


def load_graph(path: str) -> KnowledgeGraph:
    """Read a graph file, verifying checksum, version, and table sizes.

    Any mismatch raises GraphFormatError; a partial graph is never
    returned.  Node entries must be strictly ascending by name, edge rows
    by (source, target) index and frequency rows by node index, as
    ``save_graph`` writes them.  A defect in one line (the header, a node
    entry that is not a JSON string, a row with the wrong number of fields
    or a field that is not an ASCII decimal integer, a node index outside
    the node table, a count below 1 or above 2^63 - 1, an entry or row that
    repeats the one before it or comes below it) is reported as
    ``path:line: reason`` with the 1-based file line of the first defect in
    file order.  One reader parses the row tables a chunk of whole rows at
    a time and reads only a chunk that fails a check again, row by row.
    Weights are derived from the stored counts when a source is first read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    # the trailer is the last line; everything before it is the body
    end = len(text) - text.endswith("\n")
    cut = text.rfind("\n", 0, end)
    if cut < 0:
        raise GraphFormatError(f"{path}: too short to be a graph file")
    body, trailer_line = text[: cut + 1], text[cut + 1 : end]
    del text
    try:
        trailer = json.loads(trailer_line)
        expected = trailer["sha256"]
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise GraphFormatError(f"{path}: missing or malformed checksum trailer") from exc
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise GraphFormatError(f"{path}: checksum mismatch (file corrupt or truncated)")
    try:
        header = json.loads(body[: body.index("\n")])
    except (RecursionError, ValueError) as exc:
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
    n_lines = body.count("\n")
    if n_lines != expected_lines:
        raise GraphFormatError(
            f"{path}: expected {expected_lines} lines before trailer, got {n_lines}"
        )
    _, *node_lines, table = body.split("\n", 1 + n_nodes)
    del body
    nodes = _read_nodes(path, node_lines)
    # the frequency rows are the last n_freqs lines of the table
    split = len(table)
    for _ in range(n_freqs):
        split = table.rfind("\n", 0, split - 1) + 1
    first_row = 2 + n_nodes
    edges, counts = _read_rows(path, table, 0, split, first_row, "edge", n_nodes)
    freq_nodes, freqs = _read_rows(path, table, split, len(table), first_row + n_edges,
                                   "frequency", n_nodes)
    analysis_freq = dict(zip(map(nodes.__getitem__, freq_nodes), freqs))
    return KnowledgeGraph(nodes, edges, counts, analysis_freq)


def _read_nodes(path: str, lines: list[str]) -> list[str]:
    """The node table from its file lines, the first on file line 2.  The
    lines are parsed as one JSON array; only when that fails, or gives
    other than one string per line in ascending order, are they read again
    one by one to name the first bad line."""
    try:
        nodes = json.loads("[" + ",".join(lines) + "]")
        if (set(map(type, nodes)) <= {str} and len(nodes) == len(lines)
                and all(map(lt, nodes, islice(nodes, 1, None)))):
            return nodes
    except (RecursionError, ValueError):
        pass
    nodes = []
    for lineno, line in enumerate(lines, 2):
        try:
            node = json.loads(line)
        except (RecursionError, ValueError) as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed node entry") from exc
        if not isinstance(node, str):
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} is not a string")
        if nodes and node <= nodes[-1]:
            reason = (f"repeated node entry {node!r}" if node == nodes[-1]
                      else f"node entry {node!r} out of order")
            raise GraphFormatError(f"{path}:{lineno}: {reason}")
        nodes.append(node)
    return nodes


def _read_rows(path: str, table: str, start: int, stop: int, first_line: int, kind: str,
               n_nodes: int) -> tuple[array, array]:
    """The ``kind`` rows ("edge" or "frequency") in ``table[start:stop]``,
    the first on file line ``first_line``: each row's key (``src·m + tgt``,
    or the node index), strictly ascending, and the counts in key order.
    The first bad row raises GraphFormatError."""
    width = 3 if kind == "edge" else 2
    keys, counts = array("q"), array("q")
    pos = start
    while pos < stop:
        end = stop if stop - pos <= _CHUNK_CHARS else table.index("\n", pos + _CHUNK_CHARS) + 1
        reason = _read_chunk(table[pos:end], width, kind, n_nodes, keys, counts)
        if reason is not None:
            raise GraphFormatError(f"{path}:{first_line + len(keys)}: {reason}")
        pos = end
    return keys, counts


def _read_chunk(chunk: str, width: int, kind: str, n_nodes: int,
                keys: array, counts: array) -> str | None:
    """Extend ``keys`` and ``counts`` by the key and count of each row in
    ``chunk``; each key must be above the one before it.  The chunk is
    parsed at once; only when it fails a check is it read row by row, up to
    its first bad row, whose defect is returned."""
    reason = None
    last = keys[-1] if keys else -1
    try:
        # each row must keep exactly its tabs, so a short row cannot hide
        # behind a long one
        if chunk.translate(_DROP_NUMBERS) != ("\t" * (width - 1) + "\n") * chunk.count("\n"):
            raise ValueError
        # json also rejects fields such as 007
        values = json.loads("[" + chunk[:-1].replace("\t", ",").replace("\n", ",") + "]")
        *indices, column = columns = [values[i::width] for i in range(width)]
        if not (min(map(min, indices)) >= 0 and max(map(max, indices)) < n_nodes
                and min(column) >= 1 and max(column) <= _MAX_COUNT):
            raise ValueError
        new = (list(map(add, map(mul, columns[0], repeat(n_nodes)), columns[1]))
               if width == 3 else columns[0])
        if not all(map(lt, chain((last,), new), new)):
            raise ValueError
    except ValueError:
        new, column = [], []
        for row in chunk[:-1].split("\n"):
            try:
                last, count = _row_values(row, width, kind, n_nodes, last)
            except ValueError as exc:
                reason = str(exc)
                break
            new.append(last)
            column.append(count)
    keys.extend(new)
    counts.extend(column)
    return reason


def _row_values(row: str, width: int, kind: str, n_nodes: int, last: int) -> tuple[int, int]:
    """The key and count of one row, whose key must be above ``last``;
    ValueError names its defect."""
    fields = row.split("\t")
    if len(fields) != width:
        raise ValueError(f"malformed {kind} row {row!r}: expected {width} fields, got {len(fields)}")
    # int() also takes "1_0", padded fields and non-ASCII digits
    if not all(f.isascii() and f[f.startswith("-"):].isdigit() for f in fields):
        raise ValueError(f"malformed {kind} row {row!r}: fields must be ASCII decimal integers")
    *indices, count = map(int, fields)
    what = "edge count" if kind == "edge" else kind
    if not all(0 <= i < n_nodes for i in indices):
        raise ValueError(f"node index out of range in {kind} row {row!r}")
    if count < 1:
        raise ValueError(f"{what} must be at least 1, got {row!r}")
    if count > _MAX_COUNT:
        raise ValueError(f"{what} too large in {row!r}")
    key = indices[0] * n_nodes + indices[1] if width == 3 else indices[0]
    if key <= last:
        raise ValueError(f"repeated {kind} row {row!r}" if key == last
                         else f"{kind} row {row!r} out of order")
    return key, count
