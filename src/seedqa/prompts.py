"""Prompt composition for the three evaluation modes.

Modes differ only in instruction and block layout: ``standard_qa`` asks
for the answer directly, ``cot`` asks for step-by-step analysis, and
``icp`` additionally pads the question with mined knowledge seeds.  All
surface strings come from a versioned template so experiments can swap
phrasing without touching code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from string import Formatter
from typing import Sequence

from .corpus import (
    DEFAULT_CONTEXT_TOKENS, DEFAULT_RESERVED_RESPONSE_TOKENS, MODES, OPTION_LABELS, SHOTS,
    DatasetFormatError, data_path, json_field, lone_surrogate, options_object, read_jsonl,
)
from .textseg import estimate_tokens, finish_estimate, fold_estimate

_TEMPLATE_VERSION = 1

# the names compose formats each block with; the other template fields are literal
_BLOCK_FIELDS = {"question_block": ("question",), "option_line": ("label", "text"),
                 "seeds_block": ("seeds",), "analysis_block": ("analysis",),
                 "answer_block": ("answer",)}


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
        json_field(vars(self), "instructions", "an object of strings")
        for f in fields(self)[1:]:
            if f.name != "system" or self.system is not None:
                json_field(vars(self), f.name, "a string")
        missing = [m for m in MODES if m not in self.instructions]
        if missing:
            raise ValueError(f"template lacks instructions for modes: {missing}")
        # a block compose could not format fails here: an unknown or positional
        # field, an unbalanced brace, or a spec or conversion a string refuses
        for name, names in _BLOCK_FIELDS.items():
            block = getattr(self, name)
            try:
                for _, key, spec, _ in Formatter().parse(block):
                    if key is not None and key not in names:
                        takes = ", ".join(f"{{{n}}}" for n in names)
                        raise ValueError(f"unknown field {{{key}}}; it takes only {takes}")
                    if spec and "{" in spec:
                        raise ValueError(f"field {{{key}}} has a field in its format spec")
                block.format(**dict.fromkeys(names, ""))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc


def load_template(path: str) -> PromptTemplate:
    """Read a template JSON object; any defect, a field of the wrong type
    included, raises DatasetFormatError naming ``path``, and a string that
    holds an unpaired surrogate (``lone_surrogate``) names ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            data = json.loads(text)
        except (RecursionError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: {exc}") from exc
    lone = lone_surrogate(text)
    if lone is not None:
        raise DatasetFormatError(f"{path}:{lone[0]}: {lone[1]}")
    try:
        if not isinstance(data, dict):
            raise ValueError("template is not a JSON object")
        version = data.pop("version", None)
        if type(version) is not int or version != _TEMPLATE_VERSION:
            raise ValueError(f"unsupported template version {version!r}")
        return PromptTemplate(**data)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def default_template() -> PromptTemplate:
    return load_template(data_path("prompt_template.json"))


@dataclass
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
    options, seeds = options_object(rec), rec.get("seeds")
    return Exemplar(
        question=json_field(rec, "question", "a string"),
        options={label: json_field(options, label, "a string") for label in options},
        answer=json_field(rec, "answer", "a string"),
        analysis=json_field(rec, "analysis", "a string", ""),
        seeds=None if seeds is None else tuple(json_field(rec, "seeds", "a list of strings")),
    )


def load_exemplars(path: str) -> tuple[Exemplar, ...]:
    """Read exemplars from JSONL: dataset record fields plus a "seeds" list."""
    return tuple(read_jsonl(path, _parse_exemplar))


def default_exemplars() -> tuple[Exemplar, ...]:
    return load_exemplars(data_path("exemplars.jsonl"))


@dataclass(frozen=True)
class PromptSpec:
    """Mode, shot setting, exemplars, context split, and template for
    composition.  Prompt and reply share ``context_tokens``, of which
    ``reserved_tokens`` stay free for the reply."""

    mode: str
    shots: str
    exemplars: tuple[Exemplar, ...] = ()
    context_tokens: int = DEFAULT_CONTEXT_TOKENS
    reserved_tokens: int = DEFAULT_RESERVED_RESPONSE_TOKENS
    template: PromptTemplate = field(default_factory=default_template)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.shots not in SHOTS:
            raise ValueError(f"shots must be one of {SHOTS}, got {self.shots!r}")
        if self.reserved_tokens < 1:
            raise ValueError("reserved_tokens must be positive")
        if self.token_budget < 1:
            raise ValueError("context_tokens must exceed reserved_tokens")
        if self.shots == "few" and not self.exemplars:
            raise ValueError("few-shot composition needs at least one exemplar")
        if self.mode == "icp" and self.shots == "few":
            for ex in self.exemplars:
                if ex.seeds is None:
                    raise ValueError("icp exemplars must carry seed lists")

    @property
    def token_budget(self) -> int:
        """Tokens the prompt may use: the context minus the reserved reply."""
        return self.context_tokens - self.reserved_tokens

    @cached_property
    def _exemplar_prefixes(self) -> tuple[list[str], list[tuple[int, int]], int]:
        """What ``compose`` needs that depends only on the spec, computed on
        first use: the rendered exemplar blocks; the estimator states after
        the instruction and each prefix of those blocks, so ``prefixes[k]``
        has the first k blocks folded in; and the system message's cost.
        Not a field, so ``fields``, ``asdict``, ``==`` and ``repr`` ignore it.
        It is computed from the spec's and the template's fields, which is
        why both classes stay frozen; the template's ``instructions`` dict and
        the exemplars must not change after the first ``compose`` either."""
        template = self.template
        blocks = []
        if self.shots == "few":
            blocks = [_exemplar_block(template, ex, self.mode) for ex in self.exemplars]
        separator = template.section_separator
        prefixes = [fold_estimate(template.instructions[self.mode])]
        for block in blocks:
            prefixes.append(fold_estimate(separator + block, prefixes[-1]))
        # a system message occupies context too, so it counts against the budget
        system_cost = estimate_tokens(template.system) if template.system else 0
        return blocks, prefixes, system_cost


@dataclass
class RenderedPrompt:
    """One instance's prompt, its estimated tokens and its reply allowance."""

    text: str
    estimated_tokens: int
    kept_exemplars: int
    # reply allowance: the context left after the prompt, so at least the
    # spec's reserved tokens
    max_tokens: int
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


def compose(instance, spec: PromptSpec, seeds: Sequence[str] | None = None) -> RenderedPrompt:
    """Render the prompt for one instance.

    ``instance`` needs ``question`` and ``options`` attributes.  ``seeds``
    is required exactly when mode is "icp": a sequence of entity strings,
    rendered in order.  Few-shot exemplars that do not fit the budget are
    dropped whole from the end; TokenBudgetError is raised when instruction
    plus target alone exceed it, since the target question is never
    truncated.  ``max_tokens`` gets what the context leaves.

    The estimate of every kept-exemplar count comes from one pass over the
    pieces (``fold_estimate``), equal to estimating each joined prompt
    whole; only the prompt that fits is joined.  The exemplar blocks and
    their prefix estimates are folded once per spec and reused for every
    instance composed with it.
    """
    if spec.mode == "icp":
        if seeds is None:
            raise ValueError("icp composition requires seeds")
    elif seeds is not None:
        raise ValueError(f"mode {spec.mode!r} must not receive seeds")

    template = spec.template
    blocks, prefixes, system_cost = spec._exemplar_prefixes
    instruction = template.instructions[spec.mode]
    separator = template.section_separator
    tail = separator + _question_block(template, instance.question, instance.options, seeds)
    # folding the tail into prefixes[k] and finishing gives the estimate of
    # the prompt that keeps k exemplars
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
