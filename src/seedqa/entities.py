"""Entity annotation: normalization, lexicon matching, LLM extraction."""

from __future__ import annotations

import json
import unicodedata
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .client import ChatClient, CompletionRequest
from .corpus import (
    Dataset, DatasetFormatError, Instance, instance_to_record, json_field, map_in_order,
    parse_record, qo_text, read_jsonl, read_lines, write_whole,
)

Extractor = Callable[[str], "set[str] | frozenset[str]"]


class EntityParseError(ValueError):
    """An extraction response could not be parsed into an entity list."""

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class AnnotationError(RuntimeError):
    """Extraction failed for one instance; carries the instance id."""

    def __init__(self, instance_id: str, cause: Exception):
        super().__init__(f"annotation failed for instance {instance_id!r}: {cause}")
        self.instance_id = instance_id
        self.cause = cause


def normalize_text(raw: str) -> str:
    # NFKC can surface new cased characters (e.g. the MHz sign), so the
    # normalize/casefold pair is iterated to a fixed point.
    text = raw
    while True:
        folded = unicodedata.normalize("NFKC", text).casefold()
        if folded == text:
            return text
        text = folded


def normalize_entity(raw: str) -> str:
    """Canonical entity form: NFKC + casefold to a fixed point, then
    stripped.  Raises ValueError when nothing is left."""
    prev, ent = raw, normalize_text(raw).strip()
    while ent != prev:
        prev, ent = ent, normalize_text(ent).strip()
    if not ent:
        raise ValueError(f"entity is empty after normalization: {raw!r}")
    return ent


class Lexicon:
    """Closed vocabulary of canonical entities with optional surface aliases.

    All surfaces are stored in normalized form; matching happens on
    normalized text, so lookups are case- and width-insensitive.  Each
    first character maps to the lengths of the surfaces that start with it,
    longest first, so a scan position looks up only those.  An alias
    under two entries, or one that is another entry, raises ValueError, as
    ``load_lexicon`` refuses the same content.
    """

    def __init__(self, entries: Iterable[str], aliases: dict[str, str] | None = None):
        canon = {normalize_entity(e) for e in entries}
        if not canon:
            raise ValueError("lexicon has no entries")
        surface_map = {e: e for e in canon}
        for alias, target in (aliases or {}).items():
            target_n = normalize_entity(target)
            if target_n not in canon:
                raise ValueError(f"alias {alias!r} targets unknown entity {target!r}")
            _claim(surface_map, normalize_entity(alias), target_n)
        self._index(surface_map)

    def _index(self, surface_map: dict[str, str]) -> None:
        """Keep ``surface_map`` (normalized surface -> canonical entry,
        each entry mapping to itself) and the views derived from it."""
        self.entries: frozenset[str] = frozenset(surface_map.values())
        self._surface_map = surface_map
        by_first: dict[str, set[int]] = {}
        for surface in surface_map:
            by_first.setdefault(surface[0], set()).add(len(surface))
        # first character -> lengths of the surfaces starting with it, longest first
        self._lengths = {c: sorted(ls, reverse=True) for c, ls in by_first.items()}


def _claim(owner: dict[str, str], surface: str, canonical: str) -> None:
    """Record in ``owner`` that ``surface`` stands for ``canonical``; raise
    ValueError naming the surface when it already stands for another
    entry."""
    prior = owner.setdefault(surface, canonical)
    if prior != canonical:
        what = "a canonical entry" if prior == surface else f"an alias of {prior!r}"
        raise ValueError(f"{surface!r} is already {what}")


def load_lexicon(path: str) -> Lexicon:
    """Read a lexicon file: one canonical entity per line, optionally
    followed by tab-separated aliases.  Blank lines, blank alias fields and
    lines starting with '#' are skipped.

    A blank entry field, an alias listed under two canonical entries, and
    an alias that is also a canonical entry raise DatasetFormatError naming
    ``path:line``; a file that is not UTF-8 raises it naming ``path`` alone,
    since the text is decoded in blocks.
    """
    # normalized surface -> the canonical entry it stands for
    owner: dict[str, str] = {}

    def claim_line(line: str) -> None:
        if line.lstrip().startswith("#"):
            return
        entry, *aliases = line.rstrip("\n").split("\t")
        canonical = normalize_entity(entry)
        for surface in (canonical, *(normalize_entity(a) for a in aliases if a.strip())):
            _claim(owner, surface, canonical)

    read_lines(path, claim_line)
    if not owner:
        raise DatasetFormatError(f"{path}: lexicon has no entries")
    # every surface is already normalized and checked, so skip __init__
    lexicon = Lexicon.__new__(Lexicon)
    lexicon._index(owner)
    return lexicon


def extract_entities_lexicon(text: str, lexicon: Lexicon) -> set[str]:
    """Greedy longest-match scan of the normalized text.

    At each position the longest lexicon surface is taken and the scan
    resumes after it, so shorter terms nested inside a match are not
    reported separately.  Output is the set of canonical forms.
    """
    s = normalize_text(text)
    get, lengths = lexicon._surface_map.get, lexicon._lengths
    found: set[str] = set()
    i, n = 0, len(s)
    while i < n:
        # a length past the end slices off only the rest of the text, which
        # matches only when it is itself a surface, the longest one there
        for length in lengths.get(s[i], ()):
            target = get(s[i : i + length])
            if target is not None:
                found.add(target)
                i += length
                break
        else:
            i += 1
    return found


class LexiconExtractor:
    """Extractor callable backed by a fixed lexicon."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    def __call__(self, text: str) -> set[str]:
        return extract_entities_lexicon(text, self.lexicon)


ENTITY_INSTRUCTION = (
    "Extract the medical entities (diseases, symptoms, signs, drugs, tests, "
    "treatments and other medical concepts) mentioned in the text. Reply with "
    "a single line listing the entities separated by 、. If there are "
    "none, reply \"none\"."
)

EXTRACTION_MAX_TOKENS = 256

_NO_ENTITY_MARKERS = {"none", "无", "没有", "no entities", "no entities found"}
_LABEL_PREFIXES = ("entities:", "entities：", "实体:", "实体：", "医学实体:", "医学实体：")
_DELIMITERS = ("、", "，", ",", "；", ";")


def build_extraction_prompt(text: str, exemplars: Sequence[tuple[str, Sequence[str]]]) -> str:
    parts = [ENTITY_INSTRUCTION, ""]
    for ex_text, ex_entities in exemplars:
        parts.append(f"text: {ex_text}")
        parts.append("entities: " + ("、".join(ex_entities) if ex_entities else "none"))
        parts.append("")
    parts.append(f"text: {text}")
    parts.append("entities:")
    return "\n".join(parts)


def _split_entities(content: str) -> list[str]:
    pieces = [content]
    for delim in _DELIMITERS:
        pieces = [q for p in pieces for q in p.split(delim)]
    out = []
    for p in pieces:
        p = p.strip().strip("。.").strip()
        if p:
            out.append(p)
    return out


def _strip_label(line: str) -> str:
    low = line.casefold()
    for prefix in _LABEL_PREFIXES:
        if low.startswith(prefix):
            return line[len(prefix):].strip()
    return line


def _is_no_entity_marker(content: str) -> bool:
    return content.casefold().strip("。.！!").strip() in _NO_ENTITY_MARKERS


def parse_entity_response(raw: str) -> set[str]:
    """Parse an extraction reply into normalized entities.

    Accepts the requested single delimited line; tolerates a label prefix,
    surrounding blank lines, and a leading remark before the list.  A
    no-entity marker ("none", "无", ...) yields the empty set.  Anything
    else unrecognizable raises EntityParseError with the raw text attached.
    """
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise EntityParseError("empty extraction response", raw)
    # a labeled line wins; then a line using the enumeration delimiter,
    # which unlike the prose comma marks a list; then any delimited line
    for line in lines:
        stripped = _strip_label(line)
        if stripped != line:
            if not stripped or _is_no_entity_marker(stripped):
                return set()
            return {normalize_entity(p) for p in _split_entities(stripped)}
    for line in lines:
        if "、" in line:
            return {normalize_entity(p) for p in _split_entities(line)}
    for line in lines:
        if any(d in line for d in _DELIMITERS) and len(_split_entities(line)) >= 2:
            return {normalize_entity(p) for p in _split_entities(line)}
    if len(lines) == 1:
        if _is_no_entity_marker(lines[0]):
            return set()
        return {normalize_entity(lines[0])}
    raise EntityParseError("no entity line found in extraction response", raw)


class LlmExtractor:
    """Extractor that prompts a chat model with few-shot examples.

    Determinism comes from temperature 0 plus the client's cache or replay
    fixtures; the same text with the same exemplars always builds the same
    prompt, hence the same request digest.
    """

    def __init__(
        self,
        client: ChatClient,
        exemplars: Sequence[tuple[str, Sequence[str]]],
    ):
        if not exemplars:
            raise ValueError("LlmExtractor needs at least one exemplar")
        self.client = client
        self.exemplars = tuple((t, tuple(e)) for t, e in exemplars)

    def __call__(self, text: str) -> set[str]:
        prompt = build_extraction_prompt(text, self.exemplars)
        request = CompletionRequest(
            model=self.client.config.model,
            prompt=prompt,
            temperature=self.client.config.temperature,
            max_tokens=EXTRACTION_MAX_TOKENS,
        )
        response = self.client.complete(request)
        return parse_entity_response(response.text)


def load_extraction_exemplars(path: str) -> list[tuple[str, tuple[str, ...]]]:
    """Read ``{"text", "entities"}`` lines into (text, entities) pairs."""
    return read_jsonl(path, lambda rec: (json_field(rec, "text", "a string"),
                                         tuple(json_field(rec, "entities", "a list of strings"))))


@dataclass
class AnnotatedInstance:
    """An instance plus its question-side and analysis-side entity sets."""

    base: Instance
    qo_entities: frozenset[str]
    r_entities: frozenset[str]

    def __post_init__(self) -> None:
        for side in (self.qo_entities, self.r_entities):
            for ent in side:
                if ent != normalize_entity(ent):
                    raise ValueError(f"entity not in canonical form: {ent!r}")


def annotate_instance(
    inst: Instance, extractor: Extractor, include_analysis: bool = True
) -> AnnotatedInstance:
    qo = frozenset(extractor(qo_text(inst)))
    r = frozenset(extractor(inst.analysis)) if include_analysis else frozenset()
    return AnnotatedInstance(inst, qo, r)


def annotate_dataset(
    dataset: Dataset,
    extractor: Extractor,
    include_analysis: bool = True,
    on_error: str = "raise",
    workers: int = 1,
) -> list[AnnotatedInstance]:
    """Annotate every instance, preserving dataset order.

    ``on_error`` is "raise" (abort on the first failing instance in input
    order, starting no instance after it beyond the ``workers`` already
    submitted) or "skip" (drop failing instances).  Instances are annotated
    on a pool of ``workers`` threads, or at one worker in the calling
    thread with no pool; more than one only pays off with a network-backed
    extractor.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def work(inst: Instance) -> AnnotatedInstance | AnnotationError:
        try:
            return annotate_instance(inst, extractor, include_analysis)
        except Exception as exc:
            return AnnotationError(inst.id, exc)

    out: list[AnnotatedInstance] = []
    with closing(map_in_order(work, dataset, workers)) as results:
        for res in results:
            if isinstance(res, AnnotationError):
                if on_error == "raise":
                    raise res
                continue
            out.append(res)
    return out


def save_annotated(annotated: Sequence[AnnotatedInstance], path: str) -> None:
    """Write annotated records, whole or not at all: the dataset record plus
    sorted entity lists."""

    def lines():
        for ann in annotated:
            rec = instance_to_record(ann.base)
            rec["qo_entities"] = sorted(ann.qo_entities)
            rec["r_entities"] = sorted(ann.r_entities)
            yield json.dumps(rec, ensure_ascii=False) + "\n"

    write_whole(path, lines())


def load_annotated(path: str) -> list[AnnotatedInstance]:
    return read_jsonl(
        path,
        lambda rec: AnnotatedInstance(
            parse_record(rec),
            frozenset(json_field(rec, "qo_entities", "a list of strings")),
            frozenset(json_field(rec, "r_entities", "a list of strings")),
        ),
    )
