"""Knowledge-seeded prompting for multiple-choice clinical QA.

The pipeline: annotate corpora with entity sets, accumulate a weighted
co-occurrence graph from training instances, mine per-question knowledge
seeds by rank aggregation, compose prompts (direct answer, step-by-step,
or seed-padded), query a chat-completion model, and score the results.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so a run that never
touches the graph never compiles it.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# defining module -> its public names
_MODULE_EXPORTS = {
    "client": ("ChatClient", "ClientConfig", "CompletionRequest", "CompletionResponse",
               "request_digest"),
    "corpus": ("Dataset", "DatasetFormatError", "Instance", "load_dataset", "qo_text",
               "split_sample"),
    "entities": ("AnnotatedInstance", "Lexicon", "LlmExtractor", "annotate_stream",
                 "extract_entities_lexicon", "load_lexicon", "normalize_entity",
                 "save_annotated"),
    "evaluation": ("EvalRecord", "EvalReport", "build_report", "extract_answer", "rouge_l",
                   "run_eval", "seed_quality"),
    "graph": ("KnowledgeGraph", "build_graph", "load_graph", "save_graph"),
    "prompts": ("Exemplar", "PromptSpec", "PromptTemplate", "RenderedPrompt", "compose",
                "default_exemplars", "default_template"),
    "seeds": ("SeedQuery", "SeedResult", "mine_seeds"),
    "textseg": ("estimate_tokens", "tokenize"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

# the modules themselves stay reachable as attributes too, as they were
# when the package imported them all
__all__ = [*_EXPORTS, *_MODULE_EXPORTS]


def __getattr__(name: str):
    if name in _MODULE_EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
