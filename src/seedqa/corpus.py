"""Multiple-choice QA datasets: loading, validation, filtering, splitting."""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterator, TypeVar

from .textseg import count_words

OPTION_LABELS = ("A", "B", "C", "D", "E")
SPLIT_TAGS = ("train", "test")


T = TypeVar("T")


class DatasetFormatError(ValueError):
    """An input file violates its format; the message starts with the file's
    path, and with ``path:line`` for line-delimited JSON."""


def read_jsonl(path: str, parse: Callable[[dict], T]) -> list[T]:
    """Parse every non-blank line of a line-delimited JSON file.

    Each line must hold a JSON object, which ``parse`` turns into a value.
    Invalid JSON, a non-object line, or a KeyError, TypeError or ValueError
    raised by ``parse`` becomes DatasetFormatError naming ``path:line``.
    """
    out: list[T] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(rec, dict):
                raise DatasetFormatError(f"{where}: record is not a JSON object")
            try:
                out.append(parse(rec))
            except KeyError as exc:
                raise DatasetFormatError(f"{where}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise DatasetFormatError(f"{where}: {exc}") from exc
    return out


def data_path(name: str) -> str:
    """Path of a file shipped in the package's ``data`` directory."""
    return str(resources.files(__package__).joinpath(f"data/{name}"))


def canonical_label(raw: object) -> str:
    """Normalize an option label: fullwidth to ASCII, uppercased, stripped."""
    return unicodedata.normalize("NFKC", str(raw)).strip().upper()


@dataclass(frozen=True)
class Instance:
    """One exam question with labeled options, gold answer, and analysis."""

    id: str
    question: str
    options: dict[str, str]
    answer: str
    analysis: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not str(self.id).strip():
            raise ValueError("instance id must be non-empty")
        if not self.question.strip():
            raise ValueError(f"instance {self.id!r}: question is empty")
        if not self.options:
            raise ValueError(f"instance {self.id!r}: no options")
        for label, text in self.options.items():
            if label not in OPTION_LABELS:
                raise ValueError(
                    f"instance {self.id!r}: option label {label!r} not in "
                    f"{'/'.join(OPTION_LABELS)}"
                )
            if not text.strip():
                raise ValueError(f"instance {self.id!r}: option {label} text is empty")
        if self.answer not in self.options:
            raise ValueError(
                f"instance {self.id!r}: answer {self.answer!r} is not an option label"
            )
        if not self.analysis.strip():
            raise ValueError(f"instance {self.id!r}: analysis is empty")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.options)


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of instances with unique ids."""

    instances: tuple[Instance, ...]
    split_tag: str = "train"

    def __post_init__(self) -> None:
        if self.split_tag not in SPLIT_TAGS:
            raise ValueError(f"split_tag must be one of {SPLIT_TAGS}, got {self.split_tag!r}")
        seen: set[str] = set()
        for inst in self.instances:
            if inst.id in seen:
                raise ValueError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)

    @property
    def n(self) -> int:
        return len(self.instances)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __getitem__(self, i: int) -> Instance:
        return self.instances[i]


def parse_record(rec: dict) -> Instance:
    """Build an Instance from one dataset record; raises KeyError for a
    missing field and ValueError for an invalid one."""
    options_raw = rec["options"]
    if not isinstance(options_raw, dict):
        raise ValueError("field 'options' must be an object")
    options = {canonical_label(k): str(v) for k, v in options_raw.items()}
    if len(options) != len(options_raw):
        raise ValueError("option labels collide after normalization")
    metadata = rec.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValueError("field 'metadata' must be an object")
    return Instance(
        id=str(rec["id"]),
        question=str(rec["question"]),
        options=options,
        answer=canonical_label(rec["answer"]),
        analysis=str(rec["analysis"]),
        metadata={str(k): str(v) for k, v in metadata.items()},
    )


def load_dataset(path: str, split_tag: str = "train") -> Dataset:
    """Read a line-delimited JSON dataset.

    Each non-blank line is one record: ``{id, question, options, answer,
    analysis, metadata?}``.  Option labels and the answer are normalized to
    uppercase A..E.  Malformed lines raise DatasetFormatError naming the
    line number and field.
    """
    instances = read_jsonl(path, parse_record)
    try:
        return Dataset(tuple(instances), split_tag)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc


def instance_to_record(inst: Instance) -> dict:
    rec: dict = {
        "id": inst.id,
        "question": inst.question,
        "options": dict(inst.options),
        "answer": inst.answer,
        "analysis": inst.analysis,
    }
    if inst.metadata:
        rec["metadata"] = dict(inst.metadata)
    return rec


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write one JSON object per line; loading the file back gives an equal
    dataset."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst in dataset:
            fh.write(json.dumps(instance_to_record(inst), ensure_ascii=False))
            fh.write("\n")


def filter_instances(
    dataset: Dataset,
    min_options: int = 5,
    min_analysis_words: int = 30,
    word_counter: Callable[[str], int] = count_words,
) -> Dataset:
    """Keep instances with exactly ``min_options`` options and an analysis
    strictly longer than ``min_analysis_words`` words."""
    if min_options < 0 or min_analysis_words < 0:
        raise ValueError("filter thresholds must be non-negative")
    kept = tuple(
        inst
        for inst in dataset
        if len(inst.options) == min_options
        and word_counter(inst.analysis) > min_analysis_words
    )
    return Dataset(kept, dataset.split_tag)


def _stratified_indices(
    dataset: Dataset, test_size: int, rng: random.Random, key: str
) -> set[int]:
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(dataset):
        groups.setdefault(inst.metadata.get(key, "unknown"), []).append(i)
    n = dataset.n
    quotas = {g: test_size * len(ix) / n for g, ix in groups.items()}
    take = {g: int(quotas[g]) for g in groups}
    # largest-remainder rounding so the group sizes sum to test_size exactly
    leftover = test_size - sum(take.values())
    by_remainder = sorted(groups, key=lambda g: (-(quotas[g] - take[g]), g))
    for g in by_remainder[:leftover]:
        take[g] += 1
    chosen: set[int] = set()
    for g in sorted(groups):
        chosen.update(rng.sample(groups[g], take[g]))
    return chosen


def split_sample(
    dataset: Dataset,
    test_size: int,
    rng_seed: int,
    stratify_by: str | None = None,
) -> tuple[Dataset, Dataset]:
    """Sample ``test_size`` instances without replacement as the test split.

    Returns ``(test, train)``; both preserve the original instance order.
    With ``stratify_by`` the draw is proportional per metadata value
    (missing values pooled under "unknown"), using largest-remainder
    rounding.  The same seed always selects the same instances.
    """
    if not 0 <= test_size <= dataset.n:
        raise ValueError(f"test_size must be in [0, {dataset.n}], got {test_size}")
    rng = random.Random(rng_seed)
    if stratify_by is None:
        chosen = set(rng.sample(range(dataset.n), test_size))
    else:
        chosen = _stratified_indices(dataset, test_size, rng, stratify_by)
    test = tuple(inst for i, inst in enumerate(dataset) if i in chosen)
    train = tuple(inst for i, inst in enumerate(dataset) if i not in chosen)
    return Dataset(test, "test"), Dataset(train, "train")


def qo_text(inst: Instance) -> str:
    """Question plus all option texts, the surface scanned for question-side
    entities."""
    return "\n".join([inst.question, *inst.options.values()])
