"""Spans around seedqa's public functions, recorded from outside the package.

The package binds names with ``from .x import y``, so each wrapper replaces
the name where the caller looks it up (``seedqa.evaluation.mine_seeds``,
not only ``seedqa.seeds.mine_seeds``).  A span is
``[name, start, end, parent, run, note]``: ``parent`` indexes the enclosing
span (-1 for the root), ``run`` is the repetition id shared by every span
of one child process, and ``note`` holds a count taken at the boundary (or
the exception class name when the call raised).
Spans stay in memory until the child reports them.  Per-character helpers
such as ``is_cjk`` are left alone: wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from collections import defaultdict


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _chars(args, result, before):
    return len(args[0])


def _seeds_returned(args, result, before):
    return len(result)


def _rss_delta(args, result, before):
    return _rss_mb() - before


def _kept_offered(args, result, before):
    spec = args[1]
    return [result.kept_exemplars, len(spec.exemplars) if spec.shots == "few" else 0]


# (owner, attribute, span name, note) — owner is a module path, optionally
# followed by ":Class" for a method.  A note is computed from the call's
# arguments and result; a call that raises notes its exception's class name.
TARGETS = (
    ("seedqa.cli", "load_dataset", "corpus.load_dataset", None),
    ("seedqa.cli", "split_sample", "corpus.split_sample", None),
    ("seedqa.cli", "load_lexicon", "entities.load_lexicon", None),
    ("seedqa.cli", "annotate_dataset", "entities.annotate_dataset", None),
    ("seedqa.entities", "extract_entities_lexicon", "entities.extract", _chars),
    ("seedqa.cli", "save_annotated", "entities.save_annotated", None),
    ("seedqa.cli", "load_annotated", "entities.load_annotated", None),
    ("seedqa.cli", "build_graph", "graph.build", None),
    ("seedqa.cli", "save_graph", "graph.save", None),
    ("seedqa.cli", "load_graph", "graph.load", _rss_delta),
    ("seedqa.evaluation", "mine_seeds", "seeds.mine", _seeds_returned),
    ("seedqa.cli", "load_template", "prompts.load_template", None),
    ("seedqa.cli", "load_exemplars", "prompts.load_exemplars", None),
    ("seedqa.evaluation", "compose", "prompts.compose", _kept_offered),
    ("seedqa.prompts", "estimate_tokens", "textseg.estimate_tokens", _chars),
    ("seedqa.evaluation", "tokenize", "textseg.tokenize", _chars),
    ("seedqa.cli", "ChatClient", "client.init", None),
    ("seedqa.client:ChatClient", "complete", "client.complete", None),
    ("seedqa.cli", "run_eval", "evaluation.run_eval", None),
    ("seedqa.evaluation", "extract_answer", "evaluation.extract_answer", None),
    ("seedqa.evaluation", "bleu_n", "evaluation.bleu", None),
    ("seedqa.evaluation", "rouge_n", "evaluation.rouge_n", None),
    ("seedqa.evaluation", "rouge_l", "evaluation.rouge_l", None),
    ("seedqa.evaluation", "build_report", "evaluation.build_report", None),
    ("seedqa.cli", "save_records", "evaluation.save_records", None),
    ("seedqa.cli", "save_report", "evaluation.save_report", None),
)
ROOT = "cli.main"
LAYERS = ("cli", "corpus", "entities", "graph", "seeds", "prompts", "textseg",
          "client", "evaluation")


class Recorder:
    """Collects spans for one repetition."""

    def __init__(self, run: int):
        self.run = run
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unwrapped: list[str] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, run = self.spans, self._stack, self.run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run, None]
            stack.append(len(spans))
            spans.append(span)
            before = _rss_mb() if note is _rss_delta else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                span[5] = type(exc).__name__
                raise
            else:
                span[2] = time.perf_counter()
                if note is not None:
                    span[5] = note(args, result, before)
                return result
            finally:
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target that exists; missing ones are listed, not fatal,
        so a renamed function zeroes its metrics instead of the run."""
        for owner_path, attr, name, note in TARGETS:
            module_path, _, cls = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_path)
                if cls:
                    owner = getattr(owner, cls)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unwrapped.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(name, fn, note))


# --- aggregation -------------------------------------------------------------

class RepSummary:
    """Per-name and per-layer totals of one traced repetition, with every
    duration multiplied by ``scale`` (the repetition's speed calibration)."""

    def __init__(self, spans, scale: float = 1.0):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, list] = defaultdict(list)
        self.errors: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _run, note in spans:
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        estimate_in_compose = 0
        for i, (name, start, end, parent, _run, note) in enumerate(spans):
            dur = (end - start) * scale
            self.calls[name] += 1
            self.busy[name] += dur
            self.durations[name].append(dur)
            if isinstance(note, str):
                self.errors[name][note] += 1
            elif note is not None:
                self.notes[name].append(note)
            layer = name.split(".", 1)[0]
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + dur - child_time[i]
            if name == "textseg.estimate_tokens" and parent >= 0 and spans[parent][0] == "prompts.compose":
                estimate_in_compose += 1
        self.estimate_in_compose = estimate_in_compose


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def layer_metrics(reps: list[RepSummary], pool_sizes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over traced repetitions: times and counts are
    medians across repetitions (counts repeat exactly), and percentiles pool
    every call of every traced repetition.  ``pool_sizes`` holds the
    candidate pool of every mined query, as the reference miner counts it."""

    def med(fn):
        return statistics.median(fn(r) for r in reps)

    def count(fn):
        return statistics.median_low(fn(r) for r in reps)

    def busy(name):
        return med(lambda r: r.busy.get(name, 0.0))

    def calls(name):
        return count(lambda r: r.calls.get(name, 0))

    def pooled_ms(name, q):
        return 1000 * percentile([d for r in reps for d in r.durations.get(name, [])], q)

    def samples(name):
        return sum(r.calls.get(name, 0) for r in reps)

    def note_sum(name, pick=lambda n: n):
        return med(lambda r: sum(pick(n) for n in r.notes.get(name, [])))

    compose_calls = calls("prompts.compose")
    kept = note_sum("prompts.compose", lambda n: n[0])
    offered = note_sum("prompts.compose", lambda n: n[1])
    returned = note_sum("seeds.mine")
    mined = calls("seeds.mine")
    pool_total = sum(pool_sizes) if mined else 0
    m = {
        "seeds.mine.calls": (calls("seeds.mine"), "count"),
        "seeds.mine.busy_s": (busy("seeds.mine"), "s"),
        "seeds.mine.ms_p50": (pooled_ms("seeds.mine", 50), "ms"),
        "seeds.mine.ms_p95": (pooled_ms("seeds.mine", 95), "ms"),
        "seeds.mine.samples": (samples("seeds.mine"), "count"),
        "seeds.pool_size.mean": (pool_total / len(pool_sizes) if pool_total else 0.0, "count"),
        "seeds.yield": (returned / pool_total if pool_total else 0.0, "ratio"),
        "graph.load.s": (busy("graph.load"), "s"),
        "graph.load.rss_mb": (note_sum("graph.load"), "MB"),
        "graph.build.s": (busy("graph.build"), "s"),
        "graph.save.s": (busy("graph.save"), "s"),
        "evaluation.rouge_l.busy_s": (busy("evaluation.rouge_l"), "s"),
        "evaluation.rouge_l.ms_p95": (pooled_ms("evaluation.rouge_l", 95), "ms"),
        "evaluation.rouge_l.samples": (samples("evaluation.rouge_l"), "count"),
        "evaluation.bleu.busy_s": (busy("evaluation.bleu"), "s"),
        "evaluation.rouge_n.busy_s": (busy("evaluation.rouge_n"), "s"),
        "textseg.tokenize.busy_s": (busy("textseg.tokenize"), "s"),
        "textseg.tokenize.kchars": (note_sum("textseg.tokenize") / 1000, "kchar"),
        "textseg.estimate_tokens.busy_s": (busy("textseg.estimate_tokens"), "s"),
        "textseg.estimate_tokens.kchars": (note_sum("textseg.estimate_tokens") / 1000, "kchar"),
        "prompts.compose.calls": (compose_calls, "count"),
        "prompts.compose.busy_s": (busy("prompts.compose"), "s"),
        "prompts.compose.ms_p50": (pooled_ms("prompts.compose", 50), "ms"),
        "prompts.estimate_calls_per_compose": (
            med(lambda r: r.estimate_in_compose) / compose_calls if compose_calls else 0.0,
            "ratio"),
        "prompts.exemplar_keep_ratio": (kept / offered if offered else 0.0, "ratio"),
        "entities.extract.calls": (calls("entities.extract"), "count"),
        "entities.extract.busy_s": (busy("entities.extract"), "s"),
        "entities.load_lexicon.s": (busy("entities.load_lexicon"), "s"),
        "entities.save_annotated.s": (busy("entities.save_annotated"), "s"),
        "entities.load_annotated.s": (busy("entities.load_annotated"), "s"),
        "corpus.load_dataset.s": (busy("corpus.load_dataset"), "s"),
        "client.init.s": (busy("client.init"), "s"),
        "client.complete.calls": (calls("client.complete"), "count"),
        "client.complete.busy_s": (busy("client.complete"), "s"),
        "client.replay_miss": (
            count(lambda r: r.errors["client.complete"].get("ReplayMissError", 0)), "count"),
        "evaluation.extract_answer.busy_s": (busy("evaluation.extract_answer"), "s"),
        "evaluation.build_report.s": (busy("evaluation.build_report"), "s"),
        "evaluation.save_records.s": (busy("evaluation.save_records"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda r: r.layer_self[layer]), "s")
    return m
