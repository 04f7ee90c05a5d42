"""Prompt composition for the three evaluation modes.

Modes differ only in instruction and block layout: ``standard_qa`` asks
for the answer directly, ``cot`` asks for step-by-step analysis, and
``icp`` additionally pads the question with mined knowledge seeds.  All
surface strings come from a versioned template so experiments can swap
phrasing without touching code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import OPTION_LABELS, DatasetFormatError, data_path, read_jsonl
from .textseg import estimate_tokens

MODES = ("standard_qa", "cot", "icp")
SHOTS = ("zero", "few")

DEFAULT_CONTEXT_TOKENS = 4097
DEFAULT_RESERVED_RESPONSE_TOKENS = 256
DEFAULT_TOKEN_BUDGET = DEFAULT_CONTEXT_TOKENS - DEFAULT_RESERVED_RESPONSE_TOKENS

_TEMPLATE_VERSION = 1


class TokenBudgetError(ValueError):
    """Even the zero-exemplar prompt exceeds the token budget."""


@dataclass(frozen=True)
class PromptTemplate:
    """Every literal string a prompt is assembled from."""

    instructions: dict[str, str]
    question_block: str
    options_header: str
    option_line: str
    seeds_block: str
    seed_delimiter: str
    analysis_block: str
    answer_block: str
    block_separator: str
    section_separator: str
    # optional system message sent alongside the user prompt; None keeps
    # requests single-message
    system: str | None = None

    def __post_init__(self) -> None:
        missing = [m for m in MODES if m not in self.instructions]
        if missing:
            raise ValueError(f"template lacks instructions for modes: {missing}")

    @classmethod
    def from_dict(cls, data: dict) -> "PromptTemplate":
        if data.get("version") != _TEMPLATE_VERSION:
            raise ValueError(
                f"unsupported template version {data.get('version')!r}"
            )
        fields = {k: v for k, v in data.items() if k != "version"}
        return cls(**fields)


def load_template(path: str) -> PromptTemplate:
    """Read a template JSON object; any defect raises DatasetFormatError
    naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("template is not a JSON object")
            return PromptTemplate.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: {exc}") from exc


def default_template() -> PromptTemplate:
    return load_template(data_path("prompt_template.json"))


@dataclass(frozen=True)
class Exemplar:
    """One worked example rendered ahead of the target question."""

    question: str
    options: dict[str, str]
    answer: str
    analysis: str
    seeds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("exemplar question is empty")
        for label in self.options:
            if label not in OPTION_LABELS:
                raise ValueError(f"exemplar option label {label!r} invalid")
        if self.answer not in self.options:
            raise ValueError(f"exemplar answer {self.answer!r} is not an option label")


def _parse_exemplar(rec: dict) -> Exemplar:
    seeds = rec.get("seeds")
    return Exemplar(
        question=str(rec["question"]),
        options={str(k): str(v) for k, v in dict(rec["options"]).items()},
        answer=str(rec["answer"]),
        analysis=str(rec.get("analysis", "")),
        seeds=tuple(str(s) for s in seeds) if seeds is not None else None,
    )


def load_exemplars(path: str) -> tuple[Exemplar, ...]:
    """Read exemplars from JSONL: dataset record fields plus a "seeds" list."""
    return tuple(read_jsonl(path, _parse_exemplar))


def default_exemplars() -> tuple[Exemplar, ...]:
    return load_exemplars(data_path("exemplars.jsonl"))


@dataclass(frozen=True)
class PromptSpec:
    """Mode, shot setting, exemplars, budget, and template for composition."""

    mode: str
    shots: str
    exemplars: tuple[Exemplar, ...] = ()
    token_budget: int = DEFAULT_TOKEN_BUDGET
    template: PromptTemplate = field(default_factory=default_template)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.shots not in SHOTS:
            raise ValueError(f"shots must be one of {SHOTS}, got {self.shots!r}")
        if self.token_budget < 1:
            raise ValueError("token_budget must be positive")
        if self.shots == "few" and not self.exemplars:
            raise ValueError("few-shot composition needs at least one exemplar")
        if self.mode == "icp" and self.shots == "few":
            for ex in self.exemplars:
                if ex.seeds is None:
                    raise ValueError("icp exemplars must carry seed lists")


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    estimated_tokens: int
    kept_exemplars: int
    system: str | None = None


def _question_block(
    template: PromptTemplate,
    question: str,
    options: dict[str, str],
    seeds: Sequence[str] | None,
) -> str:
    lines = [
        template.question_block.format(question=question),
        template.options_header,
    ]
    lines.extend(
        template.option_line.format(label=label, text=text)
        for label, text in options.items()
    )
    if seeds is not None:
        lines.append(
            template.seeds_block.format(seeds=template.seed_delimiter.join(seeds))
        )
    return template.block_separator.join(lines)


def _exemplar_block(template: PromptTemplate, ex: Exemplar, mode: str) -> str:
    seeds = ex.seeds if mode == "icp" else None
    lines = [_question_block(template, ex.question, ex.options, seeds)]
    if mode in ("cot", "icp"):
        lines.append(template.analysis_block.format(analysis=ex.analysis))
    lines.append(template.answer_block.format(answer=ex.answer))
    return template.block_separator.join(lines)


def compose(instance, spec: PromptSpec, seeds=None) -> RenderedPrompt:
    """Render the prompt for one instance.

    ``instance`` needs ``question`` and ``options`` attributes.  ``seeds``
    is required exactly when mode is "icp": a SeedResult or a sequence of
    entity strings, rendered in order.  Few-shot exemplars that do not fit
    the budget are dropped whole from the end; TokenBudgetError is raised
    when instruction plus target alone exceed it, since the target question
    is never truncated.
    """
    if spec.mode == "icp":
        if seeds is None:
            raise ValueError("icp composition requires seeds")
        seed_list = list(seeds.entities) if hasattr(seeds, "entities") else list(seeds)
    else:
        if seeds is not None:
            raise ValueError(f"mode {spec.mode!r} must not receive seeds")
        seed_list = None

    template = spec.template
    kept = []
    if spec.shots == "few":
        kept = [_exemplar_block(template, ex, spec.mode) for ex in spec.exemplars]
    target = _question_block(template, instance.question, instance.options, seed_list)
    # a system message occupies context too, so it counts against the budget
    system_cost = estimate_tokens(template.system) if template.system else 0
    while True:
        text = template.section_separator.join(
            [template.instructions[spec.mode], *kept, target]
        )
        estimated = estimate_tokens(text) + system_cost
        if estimated <= spec.token_budget:
            return RenderedPrompt(text, estimated, len(kept), template.system)
        if not kept:
            raise TokenBudgetError(
                f"prompt needs ~{estimated} tokens with no exemplars left, "
                f"budget is {spec.token_budget}"
            )
        kept.pop()


def max_response_tokens(
    prompt: RenderedPrompt,
    context_tokens: int = DEFAULT_CONTEXT_TOKENS,
    floor: int = DEFAULT_RESERVED_RESPONSE_TOKENS,
) -> int:
    """Response allowance: what the context leaves after the prompt, but
    never below the reserved floor."""
    return max(context_tokens - prompt.estimated_tokens, floor)
