"""Evaluation: answer extraction, overlap metrics, records, and reports.

BLEU values are in [0, 1]; ROUGE values are conventionally scaled to
[0, 100].  Analysis-quality metrics compare the model's response against
the gold analysis using the shared script-aware tokenizer, so CJK text is
scored per character and Latin text per word.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping, Sequence

from .client import ChatClient, CompletionRequest, TransportError, request_digest
from .corpus import Dataset, Instance, map_in_order, qo_text, read_jsonl
from .entities import Extractor
from .graph import KnowledgeGraph
from .prompts import PromptSpec, RenderedPrompt, compose
from .seeds import DEFAULT_K, SeedQuery, SeedResult, mine_seeds
from .textseg import tokenize

log = logging.getLogger(__name__)

# stand-in precision for zero n-gram overlap, so the geometric mean is
# defined instead of collapsing the whole score to exactly zero
BLEU_EPSILON = 1e-9

MAX_CONSECUTIVE_TRANSPORT_FAILURES = 5


class ApiExhaustionError(RuntimeError):
    """Too many consecutive transport failures; carries partial records."""

    def __init__(self, failures: int, records: "list[EvalRecord]"):
        super().__init__(
            f"aborting run after {failures} consecutive transport failures"
        )
        self.records = records


def _as_tokens(text_or_tokens: "str | Sequence[str]") -> Sequence[str]:
    # metric functions accept raw text; strings are segmented the same
    # way responses are, never scored per character
    if isinstance(text_or_tokens, str):
        return tokenize(text_or_tokens)
    return text_or_tokens


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _overlap(candidate: Sequence[str], reference: Sequence[str],
             order: int) -> tuple[int, int, int]:
    """(clipped matches, candidate n-grams, reference n-grams) at one
    order, each side counted once."""
    cand = _ngram_counts(candidate, order)
    ref = _ngram_counts(reference, order)
    common = cand.keys() & ref.keys()
    clipped = sum(map(min, map(cand.__getitem__, common), map(ref.__getitem__, common)))
    return clipped, max(len(candidate) - order + 1, 0), max(len(reference) - order + 1, 0)


def _bleu_scores(overlaps: Sequence[tuple[int, int, int]], cand_len: int,
                 ref_len: int) -> list[float]:
    # cumulative BLEU for orders 1 to len(overlaps); the log-precisions are
    # added in order, so BLEU-k is the same float however many orders follow
    if not cand_len:
        return [0.0] * len(overlaps)
    brevity = math.exp(1 - ref_len / cand_len) if cand_len < ref_len else 1.0
    scores = []
    log_sum = 0.0
    for order, (clipped, total, _) in enumerate(overlaps, 1):
        precision = clipped / total if total and clipped else BLEU_EPSILON
        log_sum += math.log(precision)
        scores.append(brevity * math.exp(log_sum / order))
    return scores


def _rouge_f1(clipped: int, cand_total: int, ref_total: int) -> float:
    if not (clipped and cand_total and ref_total):
        return 0.0
    precision = clipped / cand_total
    recall = clipped / ref_total
    return 100.0 * 2 * precision * recall / (precision + recall)


def bleu_n(candidate: "str | Sequence[str]", reference: "str | Sequence[str]", n: int) -> float:
    """Cumulative BLEU-n: geometric mean of clipped precisions for orders
    1 to n, times a brevity penalty when the candidate is shorter than the
    reference.  Orders with zero overlap contribute BLEU_EPSILON.  String
    arguments are tokenized first.  Each order is counted once per side,
    by the counting helper that ``rouge_n`` and ``ngram_scores`` share."""
    if n < 1:
        raise ValueError("n must be >= 1")
    candidate = _as_tokens(candidate)
    reference = _as_tokens(reference)
    overlaps = [_overlap(candidate, reference, order) for order in range(1, n + 1)]
    return _bleu_scores(overlaps, len(candidate), len(reference))[-1]


def rouge_n(candidate: "str | Sequence[str]", reference: "str | Sequence[str]", n: int) -> float:
    """ROUGE-n F1 over clipped n-gram overlap, scaled to [0, 100].
    String arguments are tokenized first.  Order n is counted once per
    side, by the same helper as BLEU's."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rouge_f1(*_overlap(_as_tokens(candidate), _as_tokens(reference), n))


def ngram_scores(candidate: Sequence[str], reference: Sequence[str]) -> tuple[float, ...]:
    """BLEU-1..4 and ROUGE-1/2 of one record, from one count of each
    n-gram order per side; each float equals ``bleu_n``'s or ``rouge_n``'s."""
    overlaps = [_overlap(candidate, reference, order) for order in (1, 2, 3, 4)]
    return (*_bleu_scores(overlaps, len(candidate), len(reference)),
            _rouge_f1(*overlaps[0]), _rouge_f1(*overlaps[1]))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # bit-parallel LCS (Allison & Dix 1986; Hyyro 2004): each zero bit of v
    # is a step up of the DP column over a, so their count is the LCS length
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: "str | Sequence[str]", reference: "str | Sequence[str]") -> float:
    """LCS-based F1 (beta = 1), scaled to [0, 100].  String arguments are
    tokenized first."""
    candidate = _as_tokens(candidate)
    reference = _as_tokens(reference)
    lcs = _lcs_length(candidate, reference)
    if not lcs:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 100.0 * 2 * precision * recall / (precision + recall)


def seed_quality(predicted, gold) -> tuple[float, float, float]:
    """Precision, recall, F1 of predicted seeds against gold analysis
    entities.  Either side empty gives (0, 0, 0)."""
    pred_set = set(predicted.entities) if hasattr(predicted, "entities") else set(predicted)
    gold_set = set(gold)
    if not pred_set or not gold_set:
        return 0.0, 0.0, 0.0
    hit = len(pred_set & gold_set)
    precision = hit / len(pred_set)
    recall = hit / len(gold_set)
    f1 = 2 * precision * recall / (precision + recall) if hit else 0.0
    return precision, recall, f1


# --- answer extraction ---------------------------------------------------

# a label letter optionally wrapped in brackets, right after the phrase
_TIER1 = re.compile(
    r"(?:正确答案是|答案是|答案为|答案\s*[:：]|the\s+answer\s+is|answer\s*[:：])"
    r"\s*[\(（\[【]?\s*([A-Za-z])",
    re.IGNORECASE,
)
# an entire line that is one label with only punctuation around it
_TIER2 = re.compile(r"[\W_]*([A-Za-z])[\W_]*\Z")
# a Latin letter not embedded in a longer Latin/digit token
_TIER3 = re.compile(r"(?<![A-Za-z0-9])([A-Za-z])(?![A-Za-z0-9])")

_SENTENCE_SPLIT = re.compile(r"[。．.!?！?？;；\n]")


def extract_answer(text: str, labels: Sequence[str]) -> str | None:
    """Pull the chosen option label out of a model response.

    Cascade: explicit answer phrases anywhere in the text; then a lone
    label on the final non-empty line; then standalone label tokens in the
    last sentence.  Two different labels at the same tier means the
    response did not commit to an answer, and None is returned.
    """
    label_set = {str(l).upper() for l in labels}
    if not label_set:
        raise ValueError("labels must be non-empty")

    tier1 = {m.group(1).upper() for m in _TIER1.finditer(text)} & label_set
    if len(tier1) == 1:
        return next(iter(tier1))
    if len(tier1) > 1:
        return None

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines:
        m = _TIER2.fullmatch(lines[-1].strip())
        if m and m.group(1).upper() in label_set:
            return m.group(1).upper()

    sentences = [s for s in _SENTENCE_SPLIT.split(text) if s.strip()]
    if sentences:
        tier3 = {m.group(1).upper() for m in _TIER3.finditer(sentences[-1])} & label_set
        if len(tier3) == 1:
            return next(iter(tier3))
    return None


# --- per-instance records ------------------------------------------------

@dataclass
class EvalRecord:
    """Everything observed for one instance during a run.

    Metric fields are None when they do not apply: answer-only mode skips
    the analysis metrics, non-seeded modes skip the seed metrics, and a
    failed instance records only the error.
    """

    instance_id: str
    mode: str
    shots: str
    prompt_digest: str
    response_text: str
    extracted_answer: str | None
    gold_answer: str
    correct: bool
    metadata: dict[str, str] = field(default_factory=dict)
    error: str | None = None
    response_tokens: int | None = None
    bleu_1: float | None = None
    bleu_2: float | None = None
    bleu_3: float | None = None
    bleu_4: float | None = None
    rouge_1: float | None = None
    rouge_2: float | None = None
    rouge_l: float | None = None
    seed_count: int | None = None
    seed_precision: float | None = None
    seed_recall: float | None = None
    seed_f1: float | None = None


def record_to_dict(record: EvalRecord) -> dict:
    """Field-ordered dict with inapplicable (None) metric fields omitted."""
    out: dict = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if value is None and f.name not in ("extracted_answer", "error"):
            continue
        if f.name == "metadata" and not value:
            continue
        out[f.name] = value
    return out


def save_records(records: Sequence[EvalRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_dict(rec), ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def load_records(path: str) -> list[EvalRecord]:
    names = [f.name for f in fields(EvalRecord)]
    return read_jsonl(path, lambda rec: EvalRecord(**{k: rec[k] for k in names if k in rec}))


# --- aggregate report ----------------------------------------------------

_MEAN_METRICS = (
    "bleu_1", "bleu_2", "bleu_3", "bleu_4",
    "rouge_1", "rouge_2", "rouge_l",
    "response_tokens", "seed_count",
    "seed_precision", "seed_recall", "seed_f1",
)

# display rounding: percentages and [0,100] metrics to 2 places,
# [0,1] metrics to 4
_FINE_METRICS = ("bleu_1", "bleu_2", "bleu_3", "bleu_4",
                 "seed_precision", "seed_recall", "seed_f1")


def _round_metric(name: str, value: float) -> float:
    return round(value, 4 if name in _FINE_METRICS else 2)


def _mean_over(records: Sequence[EvalRecord]) -> dict[str, float]:
    means: dict[str, float] = {}
    for name in _MEAN_METRICS:
        values = [getattr(r, name) for r in records if getattr(r, name) is not None]
        if values:
            means[name] = _round_metric(name, sum(values) / len(values))
    return means


def _accuracy_pct(records: Sequence[EvalRecord]) -> float | None:
    if not records:
        return None
    return round(100.0 * sum(r.correct for r in records) / len(records), 2)


@dataclass
class EvalReport:
    """Corpus-level aggregation of a record list."""

    total: int
    correct: int
    unresolved: int
    errors: int
    accuracy_pct: float | None
    mean_metrics: dict[str, float]
    groups: dict[str, dict[str, dict]]
    answer_split: dict[str, dict]


def build_report(records: Sequence[EvalRecord], group_by: Sequence[str] = ()) -> EvalReport:
    """Aggregate records into accuracy, metric means, per-group tables
    (rows sorted by descending count, then value), and a correct-versus-
    incorrect metric split.  Records missing a grouping key fall into an
    "unknown" row, so group counts always sum to the total."""
    total = len(records)
    correct = sum(r.correct for r in records)
    unresolved = sum(1 for r in records if r.extracted_answer is None)
    errors = sum(1 for r in records if r.error is not None)

    groups: dict[str, dict[str, dict]] = {}
    for key in group_by:
        buckets: dict[str, list[EvalRecord]] = {}
        for rec in records:
            buckets.setdefault(rec.metadata.get(key, "unknown"), []).append(rec)
        rows = {}
        for value in sorted(buckets, key=lambda v: (-len(buckets[v]), v)):
            bucket = buckets[value]
            row = {"count": len(bucket), "accuracy_pct": _accuracy_pct(bucket)}
            row.update(_mean_over(bucket))
            rows[value] = row
        groups[key] = rows

    split: dict[str, dict] = {}
    for name, bucket in (
        ("correct", [r for r in records if r.correct]),
        ("incorrect", [r for r in records if not r.correct]),
    ):
        entry = {"count": len(bucket)}
        entry.update(_mean_over(bucket))
        split[name] = entry

    return EvalReport(
        total=total,
        correct=correct,
        unresolved=unresolved,
        errors=errors,
        accuracy_pct=_accuracy_pct(records),
        mean_metrics=_mean_over(records),
        groups=groups,
        answer_split=split,
    )


def save_report(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, ensure_ascii=False, indent=2)
        fh.write("\n")


# --- end-to-end run ------------------------------------------------------

def check_run_inputs(
    test: Dataset, spec: PromptSpec, graph: KnowledgeGraph | None,
    extractor: Extractor | None,
    precomputed_seeds: Mapping[str, SeedResult] | None, workers: int,
) -> None:
    """Raise ValueError for a run that ``run_eval`` would refuse: a bad
    worker count, seeded mode without a graph or extractor, or precomputed
    seeds that lack a test id."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if spec.mode == "icp":
        if graph is None:
            raise ValueError("icp mode requires a knowledge graph")
        if extractor is None:
            raise ValueError("icp mode requires an entity extractor")
        if precomputed_seeds is not None:
            missing = [inst.id for inst in test if inst.id not in precomputed_seeds]
            if missing:
                raise ValueError(f"precomputed seeds lack {len(missing)} of {len(test)} "
                                 f"test ids, first {missing[0]!r}")


def run_eval(
    test: Dataset,
    client: ChatClient,
    spec: PromptSpec,
    graph: KnowledgeGraph | None = None,
    extractor: Extractor | None = None,
    k: int = DEFAULT_K,
    precomputed_seeds: Mapping[str, SeedResult] | None = None,
    workers: int = 1,
    group_by: Sequence[str] = (),
) -> tuple[list[EvalRecord], EvalReport]:
    """Evaluate every instance and aggregate a report.

    Configuration problems raise ValueError before any completion call
    (see ``check_run_inputs``).  A failure of seed extraction, mining or
    the completion call is recorded with its error and scored incorrect;
    its ``prompt_digest`` is empty when no prompt was built.  A prompt that
    cannot fit the token budget raises TokenBudgetError.  Records are taken
    in input order, with at most ``workers`` instances submitted ahead of
    the last record taken; the run aborts with ApiExhaustionError at the
    ``MAX_CONSECUTIVE_TRANSPORT_FAILURES``-th transport failure in a row,
    carrying exactly the records up to it, whatever the worker count.
    """
    check_run_inputs(test, spec, graph, extractor, precomputed_seeds, workers)

    def eval_one(inst: Instance) -> tuple[EvalRecord, bool]:
        record = EvalRecord(
            instance_id=inst.id,
            mode=spec.mode,
            shots=spec.shots,
            prompt_digest="",
            response_text="",
            extracted_answer=None,
            gold_answer=inst.answer,
            correct=False,
            metadata=dict(inst.metadata),
        )

        def failed(exc: Exception) -> tuple[EvalRecord, bool]:
            log.warning("instance %s failed: %s", inst.id, exc)
            record.error = f"{type(exc).__name__}: {exc}"
            return record, isinstance(exc, TransportError)

        seeds: SeedResult | None = None
        gold_entities: frozenset[str] = frozenset()
        if spec.mode == "icp":
            try:
                if precomputed_seeds is not None:
                    seeds = precomputed_seeds[inst.id]
                else:
                    query = SeedQuery(frozenset(extractor(qo_text(inst))))
                    seeds = mine_seeds(graph, query, k)
                gold_entities = frozenset(extractor(inst.analysis))
            except Exception as exc:
                return failed(exc)
        prompt: RenderedPrompt = compose(inst, spec, seeds)
        request = CompletionRequest(
            model=client.config.model,
            prompt=prompt.text,
            temperature=client.config.temperature,
            max_tokens=prompt.max_tokens,
            system=prompt.system,
        )
        record.prompt_digest = request_digest(request)
        try:
            response = client.complete(request)
        except Exception as exc:
            return failed(exc)

        record.response_text = response.text
        record.extracted_answer = extract_answer(response.text, inst.labels)
        record.correct = record.extracted_answer == inst.answer
        if spec.mode in ("cot", "icp"):
            cand = tokenize(response.text)
            ref = tokenize(inst.analysis)
            record.response_tokens = len(cand)
            (record.bleu_1, record.bleu_2, record.bleu_3, record.bleu_4,
             record.rouge_1, record.rouge_2) = ngram_scores(cand, ref)
            record.rouge_l = rouge_l(cand, ref)
        if spec.mode == "icp" and seeds is not None:
            record.seed_count = len(seeds)
            p, r, f1 = seed_quality(seeds, gold_entities)
            record.seed_precision = p
            record.seed_recall = r
            record.seed_f1 = f1
        return record, False

    # Results are taken in input order, with at most ``workers`` instances
    # submitted ahead of the last one taken, so the failure count and the
    # abort point do not depend on the worker count or on thread timing.
    records: list[EvalRecord] = []
    failures = 0
    with closing(map_in_order(eval_one, test, workers)) as results:
        for record, transport_failed in results:
            records.append(record)
            failures = failures + 1 if transport_failed else 0
            if failures >= MAX_CONSECUTIVE_TRANSPORT_FAILURES:
                raise ApiExhaustionError(failures, records)

    report = build_report(records, group_by)
    return records, report
