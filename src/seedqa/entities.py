"""Entity annotation: normalization, lexicon matching, LLM extraction."""

from __future__ import annotations

import json
import unicodedata
from contextlib import closing
from dataclasses import dataclass
from operator import eq
from typing import Callable, Iterable, Iterator, Sequence

from .client import ChatClient
from .corpus import (
    Dataset, DatasetFormatError, Instance, instance_to_record, json_field, json_object_line,
    map_in_order, parse_record, qo_text, read_jsonl, read_lines, write_whole,
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


def all_canonical(entities: Sequence[str]) -> bool:
    """Whether ``normalize_entity`` returns each string unchanged, by one
    ``normalize_text`` pass over them all, joined by line feeds, across
    which NFKC and casefolding never act.  True is certain; False is not a
    verdict on any one string, which a caller checks on its own."""
    joined = "\n".join(entities)
    return (all(entities) and all(map(eq, entities, map(str.strip, entities)))
            and normalize_text(joined) == joined)


class Lexicon:
    """Closed vocabulary of canonical entities, and the extractor that
    finds them in a text.

    All surfaces are stored in normalized form; matching happens on
    normalized text, so lookups are case- and width-insensitive.  Each
    first character maps to the lengths of the surfaces that start with it,
    longest first, so a scan position looks up only those.  Surface aliases
    come from a lexicon file, through ``load_lexicon``.
    """

    def __init__(self, entries: Iterable[str]):
        canon = {normalize_entity(e) for e in entries}
        if not canon:
            raise ValueError("lexicon has no entries")
        self._index({e: e for e in canon})

    def _index(self, surface_map: dict[str, str]) -> None:
        """Keep ``surface_map`` (normalized surface -> canonical entry,
        each entry mapping to itself) and the views derived from it."""
        self._surface_map = surface_map
        by_first: dict[str, set[int]] = {}
        for surface in surface_map:
            by_first.setdefault(surface[0], set()).add(len(surface))
        # first character -> lengths of the surfaces starting with it, longest first
        self._lengths = {c: sorted(ls, reverse=True) for c, ls in by_first.items()}

    @property
    def entries(self) -> frozenset[str]:
        """The canonical entries, computed from the surface map per read."""
        return frozenset(self._surface_map.values())

    def __call__(self, text: str) -> set[str]:
        # the module function is looked up per call, so a wrap of it sees this call
        return extract_entities_lexicon(text, self)


def load_lexicon(path: str) -> Lexicon:
    """Read a lexicon file: one canonical entity per line, optionally
    followed by tab-separated aliases.  Blank lines, blank alias fields and
    lines starting with '#' are skipped.

    A blank entry field, an alias listed under two canonical entries, an
    alias that is also a canonical entry, and a line that starts with
    U+FEFF (the UTF-8 byte order mark that some editors save at the start
    of a file) raise DatasetFormatError naming ``path:line``; a file that
    is not UTF-8 raises it naming ``path`` alone, since the text is decoded
    in blocks.

    The file is read whole.  A file with no tab, '#' or U+FEFF whose
    non-empty lines ``all_canonical`` accepts is one entry per line, taken
    as it stands; any other file is read line by line, through
    ``read_lines``, each field normalized on its own, which names the first
    defect.
    """
    # normalized surface -> the canonical entry it stands for
    owner: dict[str, str] = {}

    def claim_line(line: str) -> None:
        if line.startswith("\ufeff"):
            raise ValueError("line starts with a UTF-8 byte order mark (U+FEFF)")
        if line.lstrip().startswith("#"):
            return
        entry, *aliases = line.rstrip("\n").split("\t")
        canonical = normalize_entity(entry)
        for surface in (canonical, *(normalize_entity(a) for a in aliases if a.strip())):
            prior = owner.setdefault(surface, canonical)
            if prior != canonical:
                what = "a canonical entry" if prior == surface else f"an alias of {prior!r}"
                raise ValueError(f"{surface!r} is already {what}")

    entries = None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if "\t" not in text and "#" not in text and "\ufeff" not in text:
            entries = list(filter(None, text.split("\n")))
    except UnicodeDecodeError:
        pass  # read_lines names the file
    if entries is not None and all_canonical(entries):
        # one canonical entry on each line that is not empty
        owner.update(zip(entries, entries))
    else:
        for _ in read_lines(path, claim_line):
            pass
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
        response = self.client.complete(self.client.request(prompt, EXTRACTION_MAX_TOKENS))
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
        # one normalization pass over both sides; only a record it does not
        # clear is checked entity by entity, to name the first bad one
        if all_canonical((*self.qo_entities, *self.r_entities)):
            return
        for side in (self.qo_entities, self.r_entities):
            for ent in side:
                if ent != normalize_entity(ent):
                    raise ValueError(f"entity not in canonical form: {ent!r}")


def annotate_stream(
    dataset: Dataset,
    extractor: Extractor,
    include_analysis: bool = True,
    on_error: str = "raise",
    workers: int = 1,
) -> Iterator[AnnotatedInstance]:
    """Annotate every instance, in dataset order, one at a time as the
    result is asked for.

    ``on_error`` is "raise" (abort on the first failing instance in input
    order, starting no instance after it beyond the ``workers`` already
    submitted) or "skip" (drop failing instances); both it and ``workers``
    are checked at the call, before any instance is annotated.  Instances
    are annotated on a pool of ``workers`` threads, or at one worker in the
    calling thread with no pool; more than one only pays off with a
    network-backed extractor.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def work(inst: Instance) -> AnnotatedInstance | AnnotationError:
        try:
            qo = frozenset(extractor(qo_text(inst)))
            r = frozenset(extractor(inst.analysis)) if include_analysis else frozenset()
            return AnnotatedInstance(inst, qo, r)
        except Exception as exc:
            return AnnotationError(inst.id, exc)

    def annotated() -> Iterator[AnnotatedInstance]:
        with closing(map_in_order(work, dataset, workers)) as results:
            for res in results:
                if isinstance(res, AnnotationError):
                    if on_error == "raise":
                        raise res
                    continue
                yield res

    return annotated()


def save_annotated(annotated: Iterable[AnnotatedInstance], path: str) -> int:
    """Write annotated records, whole or not at all: the dataset record plus
    sorted entity lists.  ``annotated`` may be a lazy stream: each record is
    written as it is taken.  Returns the number of records written."""
    count = 0

    def lines() -> Iterator[str]:
        nonlocal count
        for ann in annotated:
            rec = instance_to_record(ann.base)
            rec["qo_entities"] = sorted(ann.qo_entities)
            rec["r_entities"] = sorted(ann.r_entities)
            count += 1
            yield json.dumps(rec, ensure_ascii=False) + "\n"

    write_whole(path, lines())
    return count


def read_annotated(paths: Iterable[str], seen: set[str]) -> Iterator[AnnotatedInstance]:
    """Parse the annotated records of each file in ``paths`` in turn, one
    at a time, adding each instance id to ``seen``.  A missing or invalid
    field, or an id already in ``seen`` (a repeat would count its instance
    twice), raises DatasetFormatError naming ``path:line``."""

    def parse(rec: dict) -> AnnotatedInstance:
        ann = AnnotatedInstance(
            parse_record(rec),
            frozenset(json_field(rec, "qo_entities", "a list of strings")),
            frozenset(json_field(rec, "r_entities", "a list of strings")),
        )
        if ann.base.id in seen:
            raise ValueError(f"duplicate instance id {ann.base.id!r}")
        seen.add(ann.base.id)
        return ann

    for path in paths:
        yield from read_lines(path, json_object_line(parse))
