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
beside each key, and one idf value per node.  A table takes 4 bytes per
entry (``array("i")``) when every value it can hold fits, and 8
(``array("q")``) only when one does not: the keys, at most ``m * m - 1``,
fit up to 46,340 nodes; the builder's counts, at most the number of
instances read, fit up to 2^31 - 1 instances; the loader's counts start
narrow and are widened once, at the first count above 2^31 - 1, so a file
still holds counts up to 2^63 - 1.  Nodes are indexed in name order, so
index order breaks weight ties by name.  A source's ranking,
its target indices sorted by descending weight and then target index, is
computed the first time the miner asks for it and cached as one dict
from target index to 1-based rank, in rank order: the miner reads its
head in order and looks up single ranks in it.  Every cached ranking
takes its targets and ranks from one tuple of the ints ``0..m``, so it
holds no int objects of its own.  A run that touches a few hundred
sources never ranks the rest.  ``build_graph`` keeps only each
instance's entities, as tuples that hold one string per distinct name, so
it can read a stream of annotated records one at a time.  It counts each
source's row of targets on its own, in index order, and frees each
instance and each row once it is counted.  ``save_graph`` formats the node
table in one call and each source row in one more, and streams them to the
file, hashing each with ``corpus.sha256`` as it is written.  Files store
counts only, in the order ``save_graph`` writes them: nodes by name, rows
by index.  ``load_graph`` reads the file once, as bytes, hashes its body
in place and decodes only the node lines; it rewrites line endings only
in a file that holds a CR byte.  It parses the node table as one JSON
array, checks that every node is canonical with one normalization pass
over the table, and parses the row tables from the bytes a chunk of whole
rows at a time, into tables sized once from the header.  It reads only a
part that fails a check again, line by line (a chunk of rows decoded
first), to name the first defect in file order.
"""

from __future__ import annotations

import codecs
import json
import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import islice, repeat
from operator import add, lt, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .corpus import lone_surrogate, sha256, write_whole
from .entities import AnnotatedInstance, all_canonical, normalize_entity

_MAGIC = "seedqa-graph"
_FORMAT_VERSION = 1
# the bytes deleted from a well-formed row to leave only its tabs and line feed
_NUMBER_BYTES = b"0123456789-"
# row tables are parsed this many bytes (whole rows) at a time; a
# well-formed table is ASCII, so that is as many characters
_CHUNK_CHARS = 1 << 16
# a file's UTF-8 is checked this many bytes at a time
_UTF8_BLOCK = 1 << 16
# the largest count a graph file holds: the largest an array("q") table holds
_MAX_COUNT = (1 << 63) - 1
# the largest value an array("i") table holds, 2^31 - 1 where int is 4 bytes
_INT_MAX = (1 << 8 * array("i").itemsize - 1) - 1


def _typecode(largest: int) -> str:
    """The typecode of a table whose values are at most ``largest``: "i"
    when that fits in one, else "q"."""
    return "i" if largest <= _INT_MAX else "q"


class GraphFormatError(ValueError):
    """A graph file is malformed, truncated, or of an unsupported version."""


class KnowledgeGraph:
    """Immutable co-occurrence graph over canonical entity strings.

    ``nodes`` is the node table, in name order; an edge is the integer key
    ``source_index * m + target_index``.  The constructor takes every edge
    once, in ascending key order, as ``_edges``, with its raw count at the
    same position of ``_counts``, and keeps both tables as given.  The
    builder and the loader check the tables, and make each an
    ``array("i")`` when its values fit and an ``array("q")`` when they do
    not; the constructor trusts them.
    Weights are computed per source, when it is first ranked; the
    rankings take their targets and ranks from one tuple of the ints 0..m.
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
        # source index -> {target index: 1-based rank}, in rank order, filled
        # on first use; two threads may rank the same source at once, and
        # either equal dict may stay
        self._ranked: dict[int, dict[int, int]] = {}
        # _index's values, then m, since a row can hold every node; built at
        # the first ranking, so a graph that is only built and saved holds none
        self._ints: tuple[int, ...] | None = None

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
        """Raw count of every edge, keyed by (source, target), built anew per read: read it once."""
        nodes = self.nodes
        return {
            (nodes[s], nodes[t]): count
            for (s, t), count in zip(map(divmod, self._edges, repeat(self.m)), self._counts)
        }

    def _rank(self, i: int) -> dict[int, int]:
        """Source ``i``'s target indices, heaviest first, ties by target
        name, each mapped to its 1-based rank; computed on the first call
        for each source and cached."""
        ranks = self._ranked.get(i)
        if ranks is None:
            ints = self._ints
            if ints is None:
                ints = self._ints = (*self._index.values(), self.m)
            lo, hi = self._row(i)
            targets = list(map(ints.__getitem__,
                               map(sub, self._edges[lo:hi], repeat(i * self.m))))
            counts = self._counts[lo:hi]
            total = sum(counts)
            # (count / total) * idf[t], as in _weights
            weight = dict(zip(targets, map(mul, map(truediv, counts, repeat(total)),
                                           map(self._idf.__getitem__, targets))))
            # stable, so equal weights keep the index order, which is name order
            targets.sort(key=weight.__getitem__, reverse=True)
            ranks = self._ranked[i] = dict(zip(targets, islice(ints, 1, None)))
        return ranks

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


def build_graph(train: Iterable[AnnotatedInstance]) -> KnowledgeGraph:
    """Accumulate counts over annotated training instances.

    raw(i, j) counts instances whose question side contains i and whose
    analysis side contains j; freq(j) counts instances whose analysis side
    contains j at all.  Both are per-instance (sets, not multisets), so
    repeating an entity inside one instance changes nothing.

    ``train`` is read once, and may be a lazy stream: only each instance's
    own two entity sets are kept, as tuples in the sets' order, so its text
    can be freed as soon as they are taken.  Each entity is mapped through
    one dict, so every distinct name is held as one string however many
    instances name it.  Each instance then appends its analysis-side
    indices to the row of every question-side source, and is freed.  Each
    row is sorted and counted on its own, in source index order, and freed,
    so the edge keys come out ascending with no global table, sort or
    lookup pass.  The key table is ``array("i")`` when ``m * m - 1`` fits
    in one, and the count table when the number of instances does, since
    each instance adds at most 1 to an edge.
    """
    names: dict[str, str] = {}
    name = names.setdefault
    sides = [(tuple(map(name, ann.qo_entities, ann.qo_entities)),
              tuple(map(name, ann.r_entities, ann.r_entities))) for ann in train]
    nodes = sorted(names)
    index = {node: i for i, node in enumerate(nodes)}
    m = len(nodes)
    rows: list[list[int] | None] = [[] for _ in range(m)]
    freq: Counter[str] = Counter()
    for k, (qo, r) in enumerate(sides):
        sides[k] = None
        freq.update(r)
        targets = [index[tgt] for tgt in r]
        for src in qo:
            rows[index[src]] += targets
    edges, counts = array(_typecode(m * m - 1)), array(_typecode(len(sides)))
    for i in range(m):
        row, rows[i] = rows[i], None
        if row:
            row.sort()
            # a Counter keeps first-seen order, here ascending target order
            row_counts = Counter(row)
            edges.extend(map(add, repeat(i * m), row_counts))
            counts.extend(row_counts.values())
    return KnowledgeGraph(nodes, edges, counts, dict(freq))


def save_graph(graph: KnowledgeGraph, path: str) -> None:
    """Write the graph in the versioned text format.

    Layout: a JSON header line (magic, version, table sizes), one JSON
    string per node, edge rows ``src_idx<TAB>tgt_idx<TAB>raw_count``,
    frequency rows ``node_idx<TAB>freq``, then a JSON trailer with the
    SHA-256 of everything before it.  Weights are derived, so only counts
    are stored.  Rows are written in (source, target) index order, and the
    file is replaced whole or not at all.

    The text streams to the file in chunks: the header with the node table,
    one ``%``-format per source row with its targets and counts
    interleaved, then the frequency rows.  Each chunk's UTF-8 bytes update
    the digest as it is written, so no whole body is ever held.
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
    # the node table as one JSON array, one entry per line
    node_lines = json.dumps(graph.nodes, ensure_ascii=False, separators=("\n", ":"))[1:-1]

    def body() -> Iterator[str]:
        yield f"{header}\n{node_lines}\n" if m else f"{header}\n"
        for i, (lo, hi) in enumerate(map(graph._row, range(m))):
            if lo < hi:
                fields = [0] * (2 * (hi - lo))
                fields[::2] = map(sub, edges[lo:hi], repeat(i * m))
                fields[1::2] = counts[lo:hi]
                yield (f"{i}\t%d\t%d\n" * (hi - lo)) % tuple(fields)
        yield "".join(f"{index[ent]}\t{graph.analysis_freq[ent]}\n"
                      for ent in sorted(graph.analysis_freq))

    def hashed(chunks: Iterator[str]) -> Iterator[str]:
        digest = sha256()
        for chunk in chunks:
            digest.update(chunk.encode("utf-8"))
            yield chunk
        yield json.dumps({"sha256": digest.hexdigest()}) + "\n"

    write_whole(path, hashed(body()))


def load_graph(path: str) -> KnowledgeGraph:
    """Read a graph file, verifying checksum, version, and table sizes.

    Any mismatch raises GraphFormatError; a partial graph is never
    returned.  Node entries must be strictly ascending by name and in
    canonical form (``normalize_entity``), edge rows by (source, target)
    index and frequency rows by node index, as ``save_graph`` writes them.
    A defect in one line (the header, a node entry that is not a JSON
    string or not canonical, a row with the wrong number of fields or a
    field that is not an ASCII decimal integer, a node index outside the
    node table, a count below 1 or above 2^63 - 1, an entry or row that
    repeats the one before it or comes below it) is reported as
    ``path:line: reason`` with the 1-based file line of the first defect in
    file order.

    The file is read once, as bytes, and its line endings are read as text
    mode reads them (CRLF and a lone CR end a line); a file with no CR byte
    is not copied to rewrite them.  Its UTF-8 is checked a block at a time
    and the body is hashed in place, so no decoded copy of the whole file is
    held; only the node lines are decoded.  One reader parses the row tables
    from the bytes a chunk of whole rows at a time, into tables sized once
    from the header, each ``array("i")`` where its values fit (see
    ``_read_rows``), and decodes and reads only a chunk that fails a check
    again, row by row.  Weights are derived from the stored counts when a
    source is first read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with memoryview(data) as view:
            for pos in range(0, len(view), _UTF8_BLOCK):
                decode(view[pos : pos + _UTF8_BLOCK])
        decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    # the trailer is the last line; everything before it is the body
    end = len(data) - data.endswith(b"\n")
    cut = data.rfind(b"\n", 0, end)
    if cut < 0:
        raise GraphFormatError(f"{path}: too short to be a graph file")
    try:
        trailer = json.loads(data[cut + 1 : end].decode("utf-8"))
        expected = trailer["sha256"]
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise GraphFormatError(f"{path}: missing or malformed checksum trailer") from exc
    with memoryview(data) as view:
        actual = sha256(view[: cut + 1]).hexdigest()
    if actual != expected:
        raise GraphFormatError(f"{path}: checksum mismatch (file corrupt or truncated)")
    head = data.index(b"\n")
    try:
        header = json.loads(data[:head].decode("utf-8"))
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
    n_lines = data.count(b"\n", 0, cut + 1)
    if n_lines != expected_lines:
        raise GraphFormatError(
            f"{path}: expected {expected_lines} lines before trailer, got {n_lines}"
        )
    # the node lines end where the row table starts
    start = head + 1
    for _ in range(n_nodes):
        start = data.index(b"\n", start) + 1
    with memoryview(data) as view:
        nodes = _read_nodes(path, str(view[head + 1 : start], "utf-8"))
    # the frequency rows are the last n_freqs lines of the table, which
    # starts after a line feed
    split = cut + 1
    for _ in range(n_freqs):
        split = data.rfind(b"\n", start - 1, split - 1) + 1
    first_row = 2 + n_nodes
    edges, counts = _read_rows(path, data, start, split, first_row, "edge", n_nodes, n_edges)
    freq_nodes, freqs = _read_rows(path, data, split, cut + 1, first_row + n_edges,
                                   "frequency", n_nodes, n_freqs)
    analysis_freq = dict(zip(map(nodes.__getitem__, freq_nodes), freqs))
    return KnowledgeGraph(nodes, edges, counts, analysis_freq)


def _read_nodes(path: str, text: str) -> list[str]:
    """The node table from its file lines, ``text``, the first on file line
    2.  The lines are parsed as one JSON array, and ``all_canonical`` checks
    the nodes in one normalization pass over them all; only when either
    fails, or the array holds other than one string per line in ascending
    order, or a string with an unpaired surrogate (``lone_surrogate``), are
    the lines read again one by one, each node checked with
    ``normalize_entity``, to name the first bad line."""
    try:
        nodes = json.loads("[" + text[:-1].replace("\n", ",") + "]")
        if (set(map(type, nodes)) <= {str} and len(nodes) == text.count("\n")
                and all_canonical(nodes)
                and all(map(lt, nodes, islice(nodes, 1, None)))
                and lone_surrogate(text) is None):
            return nodes
    except (RecursionError, ValueError):
        pass
    nodes = []
    for lineno, line in enumerate(text.split("\n")[:-1], 2):
        try:
            node = json.loads(line)
        except (RecursionError, ValueError) as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed node entry") from exc
        if not isinstance(node, str):
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} is not a string")
        lone = lone_surrogate(line)
        if lone is not None:
            raise GraphFormatError(f"{path}:{lineno}: malformed node entry ({lone[1]})")
        try:
            canonical = normalize_entity(node) == node
        except ValueError:
            canonical = False
        if not canonical:
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} not in canonical form")
        if nodes and node <= nodes[-1]:
            reason = (f"repeated node entry {node!r}" if node == nodes[-1]
                      else f"node entry {node!r} out of order")
            raise GraphFormatError(f"{path}:{lineno}: {reason}")
        nodes.append(node)
    return nodes


def _read_rows(path: str, data: bytes, start: int, stop: int, first_line: int, kind: str,
               n_nodes: int, n_rows: int) -> tuple[array, array]:
    """The ``n_rows`` ``kind`` rows ("edge" or "frequency") in the UTF-8
    bytes ``data[start:stop]``, the first on file line ``first_line``: each
    row's key (``src·m + tgt``, or the node index), strictly ascending, and
    the counts in key order.  Both tables are allocated once, at
    ``n_rows``, and filled a chunk of whole rows at a time.  The keys, at
    most ``m * m - 1`` or ``m - 1``, are ``array("i")`` when that fits in
    one.  The counts are only known as they are read: their table starts
    as ``array("i")`` and is copied once into an ``array("q")``, with the
    rows read before it, at the first count above 2^31 - 1.  The first bad
    row raises GraphFormatError."""
    width = 3 if kind == "edge" else 2
    largest_key = n_nodes * n_nodes - 1 if width == 3 else n_nodes - 1
    keys, counts = array(_typecode(largest_key), [0]) * n_rows, array("i", [0]) * n_rows
    done, pos = 0, start
    while pos < stop:
        end = stop if stop - pos <= _CHUNK_CHARS else data.index(b"\n", pos + _CHUNK_CHARS) + 1
        new, column, reason = _read_chunk(data[pos:end], width, kind, n_nodes,
                                          keys[done - 1] if done else -1)
        keys[done : done + len(new)] = array(keys.typecode, new)
        try:
            counts[done : done + len(new)] = array(counts.typecode, column)
        except OverflowError:
            # a count above array("i")'s range: widen the table, once
            wide = array("q", [0]) * n_rows
            wide[:done] = array("q", counts[:done])
            counts = wide
            counts[done : done + len(new)] = array("q", column)
        done += len(new)
        del new, column  # so the next chunk's lists do not sit beside these
        if reason is not None:
            raise GraphFormatError(f"{path}:{first_line + done}: {reason}")
        pos = end
    return keys, counts


def _read_chunk(chunk: bytes, width: int, kind: str, n_nodes: int,
                last: int) -> tuple[list[int], list[int], str | None]:
    """The key and count of each row in ``chunk``, whole rows of UTF-8
    bytes, as two lists; each key must be above the one before it, the
    first above ``last``.  The bytes are parsed at once; only when they fail
    a check are they decoded and read row by row, up to the first bad row.
    Returns the rows read, and the first bad row's defect or None."""
    try:
        # each row must keep exactly its tabs, so a short row cannot hide
        # behind a long one
        if (chunk.translate(None, _NUMBER_BYTES)
                != (b"\t" * (width - 1) + b"\n") * chunk.count(b"\n")):
            raise ValueError
        # json also rejects fields such as 007
        values = json.loads(b"[" + chunk[:-1].replace(b"\t", b",").replace(b"\n", b",") + b"]")
        if width == 3:
            sources, targets, column = values[::3], values[1::3], values[2::3]
            del values  # the slices hold every value read from here on
            if not (min(targets) >= 0 and max(targets) < n_nodes):
                raise ValueError
            new = list(map(add, map(mul, sources, repeat(n_nodes)), targets))
        else:
            new = sources = values[::2]
            column = values[1::2]
        # keys that ascend from ``last`` (at least -1) keep every source index
        # at or above 0, and at or below the last row's once the targets are
        # in range, so only the last source is checked
        if not (sources[-1] < n_nodes and min(column) >= 1 and max(column) <= _MAX_COUNT
                and last < new[0] and all(map(lt, new, islice(new, 1, None)))):
            raise ValueError
    except ValueError:
        new, column = [], []
        for row in chunk[:-1].decode("utf-8").split("\n"):
            try:
                last, count = _row_values(row, width, kind, n_nodes, last)
            except ValueError as exc:
                return new, column, str(exc)
            new.append(last)
            column.append(count)
    return new, column, None


def _int_past_limit(field: str) -> int:
    """``int(field)`` for a signed ASCII decimal of any length, with a value
    of more digits than ``_MAX_COUNT`` read as one past it: out of every
    range a row field is checked against, and never handed to ``int()``,
    which refuses more than 4,300 digits."""
    digits = field.lstrip("-0")
    value = _MAX_COUNT + 1 if len(digits) > len(str(_MAX_COUNT)) else int(digits or "0")
    return -value if field.startswith("-") else value


def _row_values(row: str, width: int, kind: str, n_nodes: int, last: int) -> tuple[int, int]:
    """The key and count of one row, whose key must be above ``last``;
    ValueError names its defect."""
    fields = row.split("\t")
    if len(fields) != width:
        raise ValueError(f"malformed {kind} row {row!r}: expected {width} fields, got {len(fields)}")
    # int() also takes "1_0", padded fields and non-ASCII digits
    if not all(f.isascii() and f[f.startswith("-"):].isdigit() for f in fields):
        raise ValueError(f"malformed {kind} row {row!r}: fields must be ASCII decimal integers")
    *indices, count = map(_int_past_limit, fields)
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
