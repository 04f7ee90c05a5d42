"""Reference implementations the benchmark checks the program against.

None of this imports seedqa: each function re-derives a documented result
by a different route than the package does, so agreement is evidence and
not a tautology.  The same code also renders the prompts whose digests go
into the replay fixtures, which makes every replay hit a check as well.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import re
from collections import defaultdict

# Same Unicode blocks as the package's script segmentation, written as one
# character class instead of a per-character range test.
_CJK = (
    "\u3000-\u303f\u3040-\u30ff\u3400-\u4dbf\u4e00-\u9fff"
    "\uac00-\ud7af\uf900-\ufaff\uff00-\uffef\U00020000-\U0002ffff"
)
_RUNS = re.compile(f"([{_CJK}]+)|([^{_CJK}]+)")
LATIN_CHARS_PER_TOKEN = 4


def script_runs(text: str) -> list[tuple[bool, str]]:
    return [(m.group(1) is not None, m.group(0)) for m in _RUNS.finditer(text)]


def estimate_tokens(text: str) -> int:
    """One token per CJK character, ceil(len / 4) per other run."""
    return sum(
        len(run) if cjk else -(-len(run) // LATIN_CHARS_PER_TOKEN)
        for cjk, run in script_runs(text)
    )


def tokenize(text: str) -> list[str]:
    """One token per CJK character, whitespace words elsewhere."""
    out: list[str] = []
    for cjk, run in script_runs(text):
        out.extend(run if cjk else run.split())
    return out


def lcs_length(a, b) -> int:
    """Bit-parallel LCS length (Hyyro 2004) over Python ints."""
    if not a or not b:
        return 0
    masks: dict = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 on the [0, 100] scale, from raw texts."""
    cand, ref = tokenize(candidate), tokenize(reference)
    lcs = lcs_length(cand, ref)
    if not lcs:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 100.0 * 2 * p * r / (p + r)


# --- co-occurrence graph --------------------------------------------------

class CountGraph:
    """Edge counts accumulated from planted entity sets.

    ``out[src][tgt]`` counts instances whose question side holds src and
    whose analysis side holds tgt; ``freq[tgt]`` counts instances whose
    analysis side holds tgt.
    """

    def __init__(self, entity_sets):
        self.out: dict[str, dict[str, int]] = defaultdict(dict)
        self.freq: dict[str, int] = defaultdict(int)
        nodes: set[str] = set()
        for qo, r in entity_sets:
            nodes.update(qo)
            nodes.update(r)
            for tgt in r:
                self.freq[tgt] += 1
            for src in qo:
                row = self.out[src]
                for tgt in r:
                    row[tgt] = row.get(tgt, 0) + 1
        self.nodes = sorted(nodes)
        self._ranked: dict[str, list[tuple[str, float]]] = {}

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.out.values())

    def edges(self) -> dict[tuple[str, str], int]:
        return {(s, t): c for s, row in self.out.items() for t, c in row.items()}

    def ranked(self, src: str) -> list[tuple[str, float]]:
        """Targets of ``src`` by descending weight, then entity."""
        if src not in self._ranked:
            row = self.out.get(src, {})
            total = sum(row.values())
            m = len(self.nodes)
            weighted = [
                (tgt, (count / total) * math.log10(m / (1 + self.freq.get(tgt, 0))))
                for tgt, count in row.items()
            ]
            weighted.sort(key=lambda tw: (-tw[1], tw[0]))
            self._ranked[src] = weighted
        return self._ranked[src]

    def mine(self, query, k: int) -> tuple[list[tuple[str, int]], int]:
        """Top-k seeds with their rank sums, and the candidate pool size.

        One accumulation pass over the members' ranked lists: a candidate's
        rank sum is the all-absent penalty plus, for each member that
        reaches it, its rank minus that member's penalty.  Tie weights are
        added in sorted member order so float sums match the documented
        per-candidate sum exactly.
        """
        members = sorted(query)
        base = 0
        delta: dict[str, int] = defaultdict(int)
        wsum: dict[str, float] = defaultdict(int)
        for x in members:
            lst = self.ranked(x)
            base += len(lst) + 1
            for rank, (tgt, w) in enumerate(lst, 1):
                delta[tgt] += rank - len(lst) - 1
                wsum[tgt] += w
        pool = [e for e in delta if e not in query]
        top = heapq.nsmallest(k, pool, key=lambda e: (base + delta[e], -wsum[e], e))
        return [(e, base + delta[e]) for e in top], len(pool)


def write_graph_v1(graph: CountGraph, path: str) -> None:
    """Graph file in the package's documented version-1 text format."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    rows = sorted(
        (index[s], index[t], c) for s, row in graph.out.items() for t, c in row.items()
    )
    header = {
        "magic": "seedqa-graph", "version": 1, "nodes": len(graph.nodes),
        "edges": len(rows), "freqs": len(graph.freq),
    }
    lines = [json.dumps(header, ensure_ascii=False)]
    lines.extend(json.dumps(node, ensure_ascii=False) for node in graph.nodes)
    lines.extend(f"{s}\t{t}\t{c}" for s, t, c in rows)
    lines.extend(
        f"{index[e]}\t{graph.freq[e]}" for e in sorted(graph.freq, key=index.__getitem__)
    )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
        fh.write(json.dumps({"sha256": digest}) + "\n")


# --- prompts and replay digests -------------------------------------------

def _question_block(t: dict, question: str, options: dict, seeds) -> str:
    lines = [t["question_block"].format(question=question), t["options_header"]]
    lines.extend(t["option_line"].format(label=l, text=x) for l, x in options.items())
    if seeds is not None:
        lines.append(t["seeds_block"].format(seeds=t["seed_delimiter"].join(seeds)))
    return t["block_separator"].join(lines)


def render_prompt(t: dict, mode: str, exemplars, inst: dict, seeds, budget: int):
    """Prompt text and its token estimate, dropping trailing exemplars
    until the estimate fits ``budget``."""
    blocks = []
    for ex in exemplars:
        lines = [_question_block(t, ex["question"], ex["options"],
                                 ex["seeds"] if mode == "icp" else None)]
        if mode != "standard_qa":
            lines.append(t["analysis_block"].format(analysis=ex["analysis"]))
        lines.append(t["answer_block"].format(answer=ex["answer"]))
        blocks.append(t["block_separator"].join(lines))
    target = _question_block(t, inst["question"], inst["options"], seeds)
    while True:
        text = t["section_separator"].join([t["instructions"][mode], *blocks, target])
        estimated = estimate_tokens(text)
        if estimated <= budget:
            return text, estimated
        if not blocks:
            raise ValueError(f"prompt needs {estimated} tokens, budget is {budget}")
        blocks.pop()


def request_digest(model: str, prompt: str, temperature: float, max_tokens: int) -> str:
    """SHA-256 of the canonical request JSON, as replay fixtures key it."""
    canonical = json.dumps(
        {"model": model, "prompt": prompt, "temperature": temperature,
         "max_tokens": max_tokens},
        sort_keys=True, ensure_ascii=False, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
