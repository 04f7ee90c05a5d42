"""Knowledge-seeded prompting for multiple-choice clinical QA.

The pipeline: annotate corpora with entity sets, accumulate a weighted
co-occurrence graph from training instances, mine per-question knowledge
seeds by rank aggregation, compose prompts (direct answer, step-by-step,
or seed-padded), query a chat-completion model, and score the results.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .client import (
    ChatClient,
    ClientConfig,
    CompletionRequest,
    CompletionResponse,
    RetryPolicy,
    request_digest,
)
from .corpus import (
    Dataset,
    DatasetFormatError,
    Instance,
    load_dataset,
    qo_text,
    save_dataset,
    split_sample,
)
from .entities import (
    AnnotatedInstance,
    Lexicon,
    LexiconExtractor,
    LlmExtractor,
    annotate_dataset,
    extract_entities_lexicon,
    load_annotated,
    load_lexicon,
    normalize_entity,
    save_annotated,
)
from .evaluation import (
    EvalRecord,
    EvalReport,
    bleu_n,
    build_report,
    extract_answer,
    rouge_l,
    rouge_n,
    run_eval,
    seed_quality,
)
from .graph import KnowledgeGraph, build_graph, load_graph, save_graph
from .prompts import (
    Exemplar,
    PromptSpec,
    PromptTemplate,
    RenderedPrompt,
    compose,
    default_exemplars,
    default_template,
)
from .seeds import SeedQuery, SeedResult, mine_seeds
from .textseg import estimate_tokens, is_cjk, script_runs, tokenize
