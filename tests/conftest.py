"""Shared fixtures: tiny corpora, independent metric/graph oracles, and
replay-fixture builders used across the suite."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import add

import pytest

from seedqa.client import (
    ApiStatusError, CompletionRequest, CompletionResponse, request_digest,
)
from seedqa.corpus import (
    Dataset, DatasetFormatError, Instance, canonical_label, instance_to_record, qo_text,
    read_lines,
)
from seedqa.entities import AnnotatedInstance, Lexicon, normalize_text
from seedqa.evaluation import BLEU_EPSILON, EvalRecord, _as_tokens, ngram_scores
from seedqa.graph import GraphFormatError, KnowledgeGraph, build_graph
from seedqa.prompts import (
    MODES, Exemplar, PromptSpec, PromptTemplate, RenderedPrompt, TokenBudgetError,
    _exemplar_block, _question_block, compose,
)
from seedqa.seeds import DEFAULT_K, SeedQuery, SeedRecord, SeedResult, mine_seeds
from seedqa.textseg import (
    _CJK_CLASS, _CJK_RANGES, LATIN_CHARS_PER_TOKEN, estimate_tokens, finish_estimate,
    fold_estimate,
)

ENTITY_POOL = (
    "高血压", "糖尿病", "头痛", "发热", "咳嗽", "肺炎", "贫血",
    "骨折", "胃炎", "哮喘", "心悸", "水肿", "黄疸", "眩晕", "腹泻",
)

# a JSON array nested 100,000 deep: past Python's recursion limit, so
# ``json`` raises RecursionError rather than ValueError on it
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def make_annotated(iid: str, qo_ents, r_ents) -> AnnotatedInstance:
    inst = Instance(
        id=iid,
        question="占位问题",
        options={"A": "甲", "B": "乙"},
        answer="A",
        analysis="占位解析",
    )
    return AnnotatedInstance(inst, frozenset(qo_ents), frozenset(r_ents))


@pytest.fixture(scope="session")
def toy_train() -> list[AnnotatedInstance]:
    """Three instances with entity sets ({a,b}->{c,d}), ({a}->{c}),
    ({b,e}->{d}); the canonical hand-checkable corpus."""
    return [
        make_annotated("i1", {"a", "b"}, {"c", "d"}),
        make_annotated("i2", {"a"}, {"c"}),
        make_annotated("i3", {"b", "e"}, {"d"}),
    ]


@pytest.fixture(scope="session")
def toy_graph(toy_train) -> KnowledgeGraph:
    return build_graph(toy_train)


# --- independent oracles ---------------------------------------------------

def naive_graph_stats(train):
    """Recompute counts, frequencies, and weights with plain loops,
    sharing no code with the graph module."""
    raw: dict[tuple[str, str], int] = {}
    freq: dict[str, int] = {}
    nodes: set[str] = set()
    for ann in train:
        for ent in ann.qo_entities:
            nodes.add(ent)
        for ent in ann.r_entities:
            nodes.add(ent)
            freq[ent] = freq.get(ent, 0) + 1
        for src in ann.qo_entities:
            for tgt in ann.r_entities:
                raw[(src, tgt)] = raw.get((src, tgt), 0) + 1
    m = len(nodes)
    weights: dict[tuple[str, str], float] = {}
    for (src, tgt), count in raw.items():
        row_total = 0
        for (s2, _), c2 in raw.items():
            if s2 == src:
                row_total += c2
        weights[(src, tgt)] = (count / row_total) * math.log10(m / (1 + freq.get(tgt, 0)))
    return m, raw, freq, weights


@lru_cache(maxsize=8)
def _raw_counts(graph: KnowledgeGraph) -> dict[tuple[str, str], int]:
    """``graph.raw_counts``, built once for each graph: it is immutable, and
    the property builds the whole table at every read."""
    return graph.raw_counts


def ranked_row(graph: KnowledgeGraph, entity: str) -> tuple[tuple[str, float, int], ...]:
    """``entity``'s outgoing ``(target, weight, raw_count)`` rows in the
    order the miner reads them, heaviest first and ties by target, read
    through what the miner reads (``_index``, ``_rank`` and ``_weights``)
    and ``raw_counts``.  A node with no outgoing edges and an unknown
    entity both give ``()``."""
    i = graph._index.get(entity)
    if i is None:
        return ()
    ranks = graph._rank(i)
    weight = graph._weights(i, ranks)
    raw = _raw_counts(graph)
    return tuple((graph.nodes[t], weight[t], raw[(entity, graph.nodes[t])]) for t in ranks)


def row_weights(graph: KnowledgeGraph) -> dict[tuple[str, str], float]:
    """Edge weights read off the graph's ranked rows, keyed like the
    oracle's table."""
    return {(src, tgt): w for src in graph.nodes for tgt, w, _ in ranked_row(graph, src)}


def v1_graph_bytes(train) -> bytes:
    """The v1 graph file for ``train``, written from the plain-loop counts:
    header, one JSON string per node in sorted order, edge rows ordered by
    (source index, target index), frequency rows by node index, then the
    SHA-256 trailer."""
    _, raw, freq, _ = naive_graph_stats(train)
    nodes = sorted({e for ann in train for e in (*ann.qo_entities, *ann.r_entities)})
    index = {node: i for i, node in enumerate(nodes)}
    body = (
        f'{{"magic": "seedqa-graph", "version": 1, "nodes": {len(nodes)}, '
        f'"edges": {len(raw)}, "freqs": {len(freq)}}}\n'
    )
    for node in nodes:
        body += json.dumps(node, ensure_ascii=False) + "\n"
    for si, ti in sorted((index[s], index[t]) for s, t in raw):
        body += f"{si}\t{ti}\t{raw[(nodes[si], nodes[ti])]}\n"
    for ni in sorted(index[e] for e in freq):
        body += f"{ni}\t{freq[nodes[ni]]}\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f'{{"sha256": "{digest}"}}\n').encode("utf-8")


def global_counter_build_graph(train) -> KnowledgeGraph:
    """The graph builder that counted every edge key in one ``Counter``,
    sorted the keys and looked each count up again, before the builder
    counted one source row at a time."""
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


def line_by_line_graph_nodes(path: str, lines: list[str]) -> list[str]:
    """Parse a graph file's node table one line at a time, the way the
    loader did before it parsed the table as one JSON array.  ``lines[0]``
    is file line 2; each entry must be in canonical form (the
    ``fixed_point_normalize_entity`` fixed point) and above the one before
    it.  Returns the nodes, or raises GraphFormatError naming the first
    defective line."""
    nodes: list[str] = []
    for lineno, line in enumerate(lines, 2):
        try:
            node = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}:{lineno}: malformed node entry") from exc
        if not isinstance(node, str):
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} is not a string")
        try:
            canonical = fixed_point_normalize_entity(node) == node
        except ValueError:
            canonical = False
        if not canonical:
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} not in canonical form")
        if nodes and node == nodes[-1]:
            raise GraphFormatError(f"{path}:{lineno}: repeated node entry {node!r}")
        if nodes and node < nodes[-1]:
            raise GraphFormatError(f"{path}:{lineno}: node entry {node!r} out of order")
        nodes.append(node)
    return nodes


def line_by_line_graph_rows(path: str, rows: list[str], first_line: int, n_edges: int,
                            n_nodes: int):
    """Check a graph file's row tables one line at a time, strictly in file
    order, the way the loader read them before its chunked reader named
    defects itself.  ``rows`` are the edge rows, then the frequency rows; the
    first is on file line ``first_line``.  Each row's indices must be above
    the row's before it in the same table.  Returns ``{(src, tgt): count}``
    and ``{(node,): freq}`` by node index, or raises GraphFormatError naming
    the first defective line."""
    tables = []
    for kind, what, width, first, section in (
        ("edge", "edge count", 3, 0, rows[:n_edges]),
        ("frequency", "frequency", 2, n_edges, rows[n_edges:]),
    ):
        seen: dict[tuple[int, ...], int] = {}
        last: tuple[int, ...] = (-1,)
        for lineno, row in enumerate(section, first_line + first):
            where = f"{path}:{lineno}"
            fields = row.split("\t")
            if len(fields) != width:
                raise GraphFormatError(f"{where}: malformed {kind} row {row!r}: "
                                       f"expected {width} fields, got {len(fields)}")
            if not all(re.fullmatch(r"-?[0-9]+", field) for field in fields):
                raise GraphFormatError(f"{where}: malformed {kind} row {row!r}: "
                                       "fields must be ASCII decimal integers")
            *indices, count = map(int, fields)
            if not all(0 <= i < n_nodes for i in indices):
                raise GraphFormatError(f"{where}: node index out of range in {kind} row {row!r}")
            if count < 1:
                raise GraphFormatError(f"{where}: {what} must be at least 1, got {row!r}")
            if count > 2**63 - 1:
                raise GraphFormatError(f"{where}: {what} too large in {row!r}")
            if tuple(indices) == last:
                raise GraphFormatError(f"{where}: repeated {kind} row {row!r}")
            if tuple(indices) < last:
                raise GraphFormatError(f"{where}: {kind} row {row!r} out of order")
            last = tuple(indices)
            seen[last] = count
        tables.append(seen)
    return tables


def oracle_seed_ranking(nodes, weights, query: set, k: int):
    """Exhaustive reference miner: score every non-query node from the
    weight table alone, keep those connected to the query, sort by the
    documented key, truncate to k."""
    neighbor_lists = {}
    for x in query:
        targets = [(tgt, w) for (src, tgt), w in weights.items() if src == x]
        targets.sort(key=lambda tw: (-tw[1], tw[0]))
        neighbor_lists[x] = [tgt for tgt, _ in targets]

    def rank(x, ent):
        lst = neighbor_lists[x]
        return lst.index(ent) + 1 if ent in lst else len(lst) + 1

    scored = []
    for ent in nodes:
        if ent in query:
            continue
        connected = any(ent in neighbor_lists[x] for x in query)
        if not connected:
            continue
        score = sum(rank(x, ent) for x in query)
        wsum = sum(weights.get((x, ent), 0.0) for x in query)
        scored.append((score, -wsum, ent))
    scored.sort()
    return [(ent, score) for score, _, ent in scored[:k]]


def sorted_pool_mine_seeds(weights, query: SeedQuery, k: int):
    """The miner before its one-pass form: per-member rank maps, every
    candidate scored member by member, and a full sort of the pool.  Rank
    maps and tie-break weights both come from ``weights``, the oracle's
    table, so no ranking code is shared with the graph."""
    members = sorted(query.entities)
    rank_maps: dict[str, dict[str, int]] = {}
    list_sizes: dict[str, int] = {}
    pool: set[str] = set()
    for x in members:
        row = sorted((-w, tgt) for (src, tgt), w in weights.items() if src == x)
        rank_maps[x] = {tgt: pos for pos, (_, tgt) in enumerate(row, 1)}
        list_sizes[x] = len(row)
        pool.update(rank_maps[x])
    pool -= query.entities

    def score(entity: str) -> int:
        return sum(rank_maps[x].get(entity, list_sizes[x] + 1) for x in members)

    def incoming_weight(entity: str) -> float:
        return sum(weights.get((x, entity), 0.0) for x in members)

    ordered = sorted(pool, key=lambda e: (score(e), -incoming_weight(e), e))
    return [(e, score(e)) for e in ordered[:k]]


def all_lengths_extract(text: str, lexicon: Lexicon) -> set[str]:
    """Greedy longest-match scan that tries every length from the longest
    surface down to 1 at each position, the way extraction worked before
    the lexicon was indexed by first character."""
    s = normalize_text(text)
    surface_map = lexicon._surface_map
    max_len = max(map(len, surface_map))
    found: set[str] = set()
    i, n = 0, len(s)
    while i < n:
        matched = 0
        for length in range(min(max_len, n - i), 0, -1):
            target = surface_map.get(s[i : i + length])
            if target is not None:
                found.add(target)
                matched = length
                break
        i += matched or 1
    return found


def fixed_point_normalize_entity(raw: str) -> str:
    """``normalize_entity`` as it was before canonical input returned after
    one pass: normalize and strip until nothing changes."""
    ent = normalize_text(raw).strip()
    while ent != normalize_text(ent).strip():
        ent = normalize_text(ent).strip()
    if not ent:
        raise ValueError(f"entity is empty after normalization: {raw!r}")
    return ent


# characters that NFKC, casefolding or stripping change, that only some
# readers split lines on, or that start a file saved with a byte order mark
UNICODE_PALETTE = ("İ", "ﬃ", "\u0345", "\u0085", "\u2028", "\u3000", "\xa0", "＃", "\ufeff",
                   "ß", "Ａ", "㎒", "\u00a8", "\u0308", "Ω")


def line_by_line_load_lexicon(path: str) -> Lexicon:
    """Read a lexicon file a line at a time through ``read_lines``, each
    field normalized on its own (the ``fixed_point_normalize_entity`` fixed
    point), the first defect raised as DatasetFormatError naming
    ``path:line``."""
    owner: dict[str, str] = {}

    def claim_line(line: str) -> None:
        if line.startswith("\ufeff"):
            raise ValueError("line starts with a UTF-8 byte order mark (U+FEFF)")
        if line.lstrip().startswith("#"):
            return
        entry, *aliases = line.rstrip("\n").split("\t")
        canonical = fixed_point_normalize_entity(entry)
        for surface in (canonical,
                        *(fixed_point_normalize_entity(a) for a in aliases if a.strip())):
            prior = owner.setdefault(surface, canonical)
            if prior != canonical:
                what = "a canonical entry" if prior == surface else f"an alias of {prior!r}"
                raise ValueError(f"{surface!r} is already {what}")

    for _ in read_lines(path, claim_line):
        pass
    if not owner:
        raise DatasetFormatError(f"{path}: lexicon has no entries")
    lexicon = Lexicon.__new__(Lexicon)
    lexicon._index(owner)
    return lexicon


def is_cjk(ch: str) -> bool:
    """True when the single character ``ch`` falls in a block of the CJK
    table, tested one range at a time."""
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def per_char_script_runs(text: str) -> list[tuple[bool, str]]:
    """Script runs found one character at a time with ``is_cjk``, the way
    segmentation worked before it became one regex."""
    runs: list[tuple[bool, str]] = []
    start = 0
    for i in range(1, len(text)):
        if is_cjk(text[i]) != is_cjk(text[start]):
            runs.append((is_cjk(text[start]), text[start:i]))
            start = i
    if text:
        runs.append((is_cjk(text[start]), text[start:]))
    return runs


# segmentation as one alternation that holds the CJK class twice: group 1
# matches a CJK run, group 2 any other run
_TWO_GROUP_RUN = re.compile(f"([{_CJK_CLASS}]+)|([^{_CJK_CLASS}]+)")


def two_group_script_runs(text: str) -> list[tuple[bool, str]]:
    """Script runs as segmentation found them with the two-group pattern."""
    return [(m.lastindex == 1, m.group()) for m in _TWO_GROUP_RUN.finditer(text)]


def two_group_tokenize(text: str) -> list[str]:
    """``tokenize`` over the two-group runs."""
    tokens: list[str] = []
    for run_is_cjk, run in two_group_script_runs(text):
        tokens.extend(run if run_is_cjk else run.split())
    return tokens


def two_group_fold_estimate(text: str, state: tuple[int, int] = (0, 0)) -> tuple[int, int]:
    """``fold_estimate`` as it walked the two-group matches: a CJK run
    closes the open non-CJK run, any other run extends it."""
    closed, open_len = state
    for m in _TWO_GROUP_RUN.finditer(text):
        if m.lastindex == 1:
            closed += -(-open_len // LATIN_CHARS_PER_TOKEN) + m.end() - m.start()
            open_len = 0
        else:
            open_len += m.end() - m.start()
    return closed, open_len


def dp_lcs_length(a, b) -> int:
    # two-row dynamic program; O(len(a) * len(b)) time, O(len(b)) space
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def brute_ngrams(tokens, n):
    out = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        out[gram] = out.get(gram, 0) + 1
    return out


def brute_bleu(candidate, reference, n, epsilon=1e-9):
    if not candidate:
        return 0.0
    product = 1.0
    for order in range(1, n + 1):
        cand = brute_ngrams(candidate, order)
        ref = brute_ngrams(reference, order)
        clipped = 0
        total = 0
        for gram, count in cand.items():
            total += count
            clipped += min(count, ref.get(gram, 0))
        product *= (clipped / total) if total and clipped else epsilon
    score = product ** (1.0 / n)
    if len(candidate) < len(reference):
        score *= math.exp(1 - len(reference) / len(candidate))
    return score


def brute_rouge_n(candidate, reference, n):
    cand = brute_ngrams(candidate, n)
    ref = brute_ngrams(reference, n)
    overlap = sum(min(c, ref.get(g, 0)) for g, c in cand.items())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if not cand_total or not ref_total or not overlap:
        return 0.0
    p, r = overlap / cand_total, overlap / ref_total
    return 100.0 * 2 * p * r / (p + r)


def brute_rouge_l(candidate, reference):
    # recursive LCS with memoization, structurally unlike the library's
    # bit-parallel form
    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if candidate[i - 1] == reference[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    if not candidate or not reference:
        return 0.0
    length = lcs(len(candidate), len(reference))
    lcs.cache_clear()
    if not length:
        return 0.0
    p, r = length / len(candidate), length / len(reference)
    return 100.0 * 2 * p * r / (p + r)


def bleu_n(candidate, reference, n):
    """Cumulative BLEU-n, n from 1 to 4, as ``ngram_scores`` returns it;
    strings are tokenized first, by ``tokenize``."""
    if n not in (1, 2, 3, 4):
        raise ValueError(f"BLEU order {n} is not scored")
    return ngram_scores(_as_tokens(candidate), _as_tokens(reference))[n - 1]


def rouge_n(candidate, reference, n):
    """ROUGE-n F1, n 1 or 2, as ``ngram_scores`` returns it; strings are
    tokenized first, by ``tokenize``."""
    if n not in (1, 2):
        raise ValueError(f"ROUGE order {n} is not scored")
    return ngram_scores(_as_tokens(candidate), _as_tokens(reference))[3 + n]


def sliced_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def per_order_bleu_n(candidate, reference, n):
    """BLEU-n as the scorer computed it before the orders shared one set of
    counts: both sides counted afresh for each order, and the
    log-precisions added in order 1 to n.  Tests require ``==`` floats."""
    if not candidate:
        return 0.0
    log_sum = 0.0
    for order in range(1, n + 1):
        cand = sliced_ngram_counts(candidate, order)
        total = sum(cand.values())
        clipped = sum((cand & sliced_ngram_counts(reference, order)).values())
        precision = clipped / total if total and clipped else BLEU_EPSILON
        log_sum += math.log(precision)
    geometric = math.exp(log_sum / n)
    brevity = (
        math.exp(1 - len(reference) / len(candidate))
        if len(candidate) < len(reference)
        else 1.0
    )
    return brevity * geometric


def per_order_rouge_n(candidate, reference, n):
    """ROUGE-n as the scorer computed it before the orders shared counts."""
    cand = sliced_ngram_counts(candidate, n)
    ref = sliced_ngram_counts(reference, n)
    cand_total, ref_total = sum(cand.values()), sum(ref.values())
    if not cand_total or not ref_total:
        return 0.0
    overlap = sum((cand & ref).values())
    if not overlap:
        return 0.0
    precision = overlap / cand_total
    recall = overlap / ref_total
    return 100.0 * 2 * precision * recall / (precision + recall)


def runwise_estimate_tokens(text: str) -> int:
    """The token estimate summed over the script runs of the whole text."""
    return sum(len(run) if cjk else math.ceil(len(run) / LATIN_CHARS_PER_TOKEN)
               for cjk, run in per_char_script_runs(text))


def reestimating_compose(instance, spec: PromptSpec, seeds=None) -> RenderedPrompt:
    """``compose`` as it fitted the budget before it estimated prefixes in
    one pass: join the whole prompt, estimate it, drop the last exemplar,
    and repeat until it fits or none is left."""
    template = spec.template
    kept = []
    if spec.shots == "few":
        kept = [_exemplar_block(template, ex, spec.mode) for ex in spec.exemplars]
    target = _question_block(template, instance.question, instance.options, seeds)
    system_cost = runwise_estimate_tokens(template.system) if template.system else 0
    while True:
        text = template.section_separator.join(
            [template.instructions[spec.mode], *kept, target]
        )
        estimated = runwise_estimate_tokens(text) + system_cost
        if estimated <= spec.token_budget:
            return RenderedPrompt(text, estimated, len(kept),
                                  spec.context_tokens - estimated, template.system)
        if not kept:
            raise TokenBudgetError(
                f"prompt needs ~{estimated} tokens with no exemplars left, "
                f"budget is {spec.token_budget}"
            )
        kept.pop()


def per_call_compose(instance, spec: PromptSpec, seeds=None) -> RenderedPrompt:
    """``compose`` as it was before the per-spec cache: every call renders
    the exemplar blocks, folds their prefix estimates and estimates the
    system message again."""
    if spec.mode == "icp":
        if seeds is None:
            raise ValueError("icp composition requires seeds")
    elif seeds is not None:
        raise ValueError(f"mode {spec.mode!r} must not receive seeds")
    template = spec.template
    blocks = []
    if spec.shots == "few":
        blocks = [_exemplar_block(template, ex, spec.mode) for ex in spec.exemplars]
    instruction = template.instructions[spec.mode]
    separator = template.section_separator
    tail = separator + _question_block(template, instance.question, instance.options, seeds)
    system_cost = estimate_tokens(template.system) if template.system else 0
    prefixes = [fold_estimate(instruction)]
    for block in blocks:
        prefixes.append(fold_estimate(separator + block, prefixes[-1]))
    for kept in range(len(blocks), -1, -1):
        estimated = finish_estimate(fold_estimate(tail, prefixes[kept])) + system_cost
        if estimated <= spec.token_budget:
            text = separator.join([instruction, *blocks[:kept]]) + tail
            return RenderedPrompt(text, estimated, kept,
                                  spec.context_tokens - estimated, template.system)
    raise TokenBudgetError(
        f"prompt needs ~{estimated} tokens with no exemplars left, "
        f"budget is {spec.token_budget}"
    )


# --- synthetic corpus + replay fixtures ------------------------------------

def random_annotated(rng: random.Random, count: int, vocab=ENTITY_POOL):
    """Random annotated instances for fuzzing graph and miner behavior."""
    out = []
    for i in range(count):
        qo = rng.sample(vocab, rng.randint(1, 4))
        r = rng.sample(vocab, rng.randint(0, 3))
        out.append(make_annotated(f"f{i}", set(qo), set(r)))
    return out


def synth_instance(rng: random.Random, iid: str, vocab=ENTITY_POOL) -> Instance:
    """A small exam-like instance whose question and analysis mention
    vocabulary entities, so lexicon annotation finds them."""
    q_ents = rng.sample(vocab, 2)
    r_ents = rng.sample(vocab, 2)
    answer = rng.choice("ABCDE")
    options = {label: f"备选{label}{rng.choice(vocab)}" for label in "ABCDE"}
    question = f"患者出现{q_ents[0]}伴{q_ents[1]}，最可能的诊断是"
    analysis = f"{q_ents[0]}合并{q_ents[1]}时应考虑{r_ents[0]}，且与{r_ents[1]}相鉴别。"
    return Instance(
        id=iid,
        question=question,
        options=options,
        answer=answer,
        analysis=analysis,
        metadata={"discipline": rng.choice(("内科", "外科", "儿科"))},
    )


def synth_dataset(seed: int, count: int, prefix: str = "q") -> Dataset:
    rng = random.Random(seed)
    return Dataset(tuple(synth_instance(rng, f"{prefix}{i}") for i in range(count)))


def write_dataset(dataset: Dataset, path) -> str:
    """A dataset file, one ``instance_to_record`` line per instance."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(instance_to_record(inst), ensure_ascii=False) + "\n"
                      for inst in dataset)
    return str(path)


def write_lexicon(path, vocab=ENTITY_POOL):
    path.write_text("".join(f"{term}\n" for term in vocab), encoding="utf-8")
    return str(path)


def pipeline_requests(test_dataset, spec: PromptSpec, model: str, graph=None,
                      extractor=None, k=10, context_tokens=4097, floor=256):
    """Compose the completion request each instance will produce, mirroring
    the evaluation pipeline so replay fixtures can be prepared up front."""
    requests = {}
    for inst in test_dataset:
        seeds = None
        if spec.mode == "icp":
            query = SeedQuery(frozenset(extractor(qo_text(inst))))
            seeds = mine_seeds(graph, query, k).entities
        prompt = compose(inst, spec, seeds)
        requests[inst.id] = CompletionRequest(
            model=model,
            prompt=prompt.text,
            temperature=0.0,
            max_tokens=max(context_tokens - prompt.estimated_tokens, floor),
            system=prompt.system,
        )
    return requests


def write_replay_fixture(path, requests_by_id, response_by_id):
    with open(path, "w", encoding="utf-8") as fh:
        for iid, request in requests_by_id.items():
            fh.write(json.dumps(
                {"digest": request_digest(request), "text": response_by_id[iid]},
                ensure_ascii=False,
            ))
            fh.write("\n")
    return str(path)


def count_request_digests(monkeypatch) -> list[CompletionRequest]:
    """The requests that ``request_digest`` hashes from now on, through any
    ``seedqa`` module's name for it."""
    real, hashed = request_digest, []

    def counting(request: CompletionRequest) -> str:
        hashed.append(request)
        return real(request)

    for name, module in list(sys.modules.items()):
        if name.startswith("seedqa") and vars(module).get("request_digest") is real:
            monkeypatch.setattr(module, "request_digest", counting)
    return hashed


# --- the per-field type checks as each reader wrote them ---------------------
# Before one table in ``corpus`` stated the JSON field kinds, each reader
# checked its fields by hand, as below; the differential test holds the
# table-driven readers to these.  Each function takes what the reader's
# per-record parser took and returns what it returned.

def hand_string_list(rec: dict, key: str) -> list[str]:
    value = rec[key]
    if type(value) is not list or set(map(type, value)) - {str}:
        raise ValueError(f"{key!r} must be a list of strings, got {value!r}")
    return value


def hand_string_field(rec: dict, key: str) -> str:
    value = rec[key]
    if type(value) is not str:
        raise ValueError(f"{key!r} must be a string, got {value!r}")
    return value


def hand_string_or_int_field(rec: dict, key: str) -> str:
    value = rec[key]
    if type(value) is int:
        return str(value)
    if type(value) is not str:
        raise ValueError(f"{key!r} must be a string or an integer, got {value!r}")
    return value


def hand_parse_record(rec: dict) -> Instance:
    """A dataset line."""
    options_raw = rec["options"]
    if not isinstance(options_raw, dict):
        raise ValueError("field 'options' must be an object")
    options = {canonical_label(k): hand_string_field(options_raw, k) for k in options_raw}
    if len(options) != len(options_raw):
        raise ValueError("option labels collide after normalization")
    metadata = rec.get("metadata")
    if metadata is None:
        metadata = {}
    elif type(metadata) is not dict:
        raise ValueError(f"field 'metadata' must be an object or null, got {metadata!r}")
    return Instance(
        id=hand_string_or_int_field(rec, "id"),
        question=hand_string_field(rec, "question"),
        options=options,
        answer=canonical_label(hand_string_field(rec, "answer")),
        analysis=hand_string_field(rec, "analysis"),
        metadata={k: hand_string_or_int_field(metadata, k) for k in metadata},
    )


def hand_parse_annotated(rec: dict) -> AnnotatedInstance:
    """An annotated-file line."""
    return AnnotatedInstance(
        hand_parse_record(rec),
        frozenset(hand_string_list(rec, "qo_entities")),
        frozenset(hand_string_list(rec, "r_entities")),
    )


def hand_parse_extraction_exemplar(rec: dict) -> tuple[str, tuple[str, ...]]:
    """An extraction-exemplar line."""
    return hand_string_field(rec, "text"), tuple(hand_string_list(rec, "entities"))


def hand_parse_exemplar(rec: dict) -> Exemplar:
    """A few-shot exemplar line."""
    options = rec["options"]
    if type(options) is not dict:
        raise ValueError("field 'options' must be an object")
    return Exemplar(
        question=hand_string_field(rec, "question"),
        options={label: hand_string_field(options, label) for label in options},
        answer=hand_string_field(rec, "answer"),
        analysis=hand_string_field(rec, "analysis") if "analysis" in rec else "",
        seeds=tuple(hand_string_list(rec, "seeds")) if rec.get("seeds") is not None else None,
    )


def hand_check_template(kwargs: dict) -> dict:
    """``PromptTemplate(**kwargs)``'s field checks; returns its fields as
    ``dataclasses.asdict`` gives them."""
    attrs = {"system": None, **kwargs}
    instructions = attrs["instructions"]
    if type(instructions) is not dict or set(map(type, instructions.values())) - {str}:
        raise ValueError(f"'instructions' must be an object of strings, got {instructions!r}")
    names = [f.name for f in dataclasses.fields(PromptTemplate)]
    for name in names[1:]:
        value = attrs[name]
        if type(value) is not str and not (name == "system" and value is None):
            raise ValueError(f"{name!r} must be a string, got {value!r}")
    missing = [m for m in MODES if m not in instructions]
    if missing:
        raise ValueError(f"template lacks instructions for modes: {missing}")
    return {name: attrs[name] for name in names}


def hand_parse_seed_record(rec: dict) -> SeedRecord:
    """A seed-sidecar line."""
    seeds, scores, k = hand_string_list(rec, "seeds"), rec["scores"], rec.get("k", DEFAULT_K)
    if type(scores) is not list or set(map(type, scores)) - {int}:
        raise ValueError(f"'scores' must be a list of integers, got {scores!r}")
    if len(seeds) != len(scores):
        raise ValueError(f"{len(seeds)} seeds but {len(scores)} scores")
    if type(k) is not int:
        raise ValueError(f"'k' must be an integer, got {k!r}")
    query = tuple(hand_string_list(rec, "query")) if "query" in rec else ()
    result = SeedResult(tuple(zip(seeds, scores)), k)
    return SeedRecord(hand_string_or_int_field(rec, "id"), result, query)


_HAND_JSON_TYPES = {
    "str": ({str}, "a string"),
    "str | None": ({str, type(None)}, "a string or null"),
    "bool": ({bool}, "true or false"),
    "dict[str, str]": ({dict}, "an object of strings"),
    "int | None": ({int, type(None)}, "an integer or null"),
    "float | None": ({int, float, type(None)}, "a number"),
}


def hand_parse_eval_record(rec: dict) -> EvalRecord:
    """A records-file line."""
    kwargs = {}
    for f in dataclasses.fields(EvalRecord):
        if f.name not in rec:
            continue
        value = rec[f.name]
        types, expected = _HAND_JSON_TYPES[f.type]
        if type(value) not in types or (type(value) is dict
                                        and set(map(type, value.values())) - {str}):
            raise ValueError(f"{f.name!r} must be {expected}, got {value!r}")
        kwargs[f.name] = value
    return EvalRecord(**kwargs)


def hand_response_from(data: dict) -> CompletionResponse:
    """A response dict; these checks raised TypeError."""
    text, finish = data["text"], data.get("finish_reason", "stop")
    tokens = data.get("prompt_tokens"), data.get("response_tokens")
    if type(text) is not str:
        raise TypeError(f"'text' must be a string, got {text!r}")
    if finish is not None and type(finish) is not str:
        raise TypeError(f"'finish_reason' must be a string or null, got {finish!r}")
    for key, value in zip(("prompt_tokens", "response_tokens"), tokens):
        if value is not None and type(value) is not int:
            raise TypeError(f"{key!r} must be an integer or null, got {value!r}")
    return CompletionResponse(text, finish, *tokens)


def hand_replay_adder(responses: dict):
    """The replay fixture's per-line parser, filling ``responses``; it
    read ``digest`` unchecked."""
    def add(rec: dict) -> None:
        digest = rec["digest"]
        response = hand_response_from(rec)
        if responses.setdefault(digest, response) != response:
            raise ValueError(f"digest {digest} repeats with a different response")
    return add


def hand_parse_completion_body(body: str) -> CompletionResponse:
    """A 200 reply from the completion endpoint."""
    try:
        data = json.loads(body)
        choice = data["choices"][0]
        text = choice["message"]["content"]
        usage = {} if data.get("usage") is None else data["usage"]
        if type(usage) is not dict:
            raise TypeError(f"'usage' must be an object or null, got {usage!r}")
        return hand_response_from({
            "text": text,
            "finish_reason": choice.get("finish_reason", "stop"),
            "prompt_tokens": usage.get("prompt_tokens"),
            "response_tokens": usage.get("completion_tokens"),
        })
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ApiStatusError(200, body[:2000]) from exc


def hand_cache_get(path: str) -> CompletionResponse | None:
    """A disk-cache entry's response, or None for an unreadable entry."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return hand_response_from(data["response"])
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError):
        return None
