"""Multiple-choice QA datasets: loading, validation, splitting, and mapping a
function over instances in input order on a thread pool."""

from __future__ import annotations

import json
import random
import unicodedata
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from typing import Callable, Iterable, Iterator, TypeVar

OPTION_LABELS = ("A", "B", "C", "D", "E")

# knowledge seeds mined per question; defined here, where the CLI, the
# evaluation loop and the miner can all read it without loading the miner
DEFAULT_K = 10


T = TypeVar("T")
R = TypeVar("R")


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


def string_list(rec: dict, key: str) -> list[str]:
    """``rec[key]``, which must be a JSON list of strings: a string there is
    refused, not split into its characters.  Raises KeyError when the field
    is missing and ValueError when it is not such a list."""
    value = rec[key]
    if type(value) is not list or set(map(type, value)) - {str}:
        raise ValueError(f"{key!r} must be a list of strings, got {value!r}")
    return value


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

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for inst in self.instances:
            if inst.id in seen:
                raise ValueError(f"duplicate instance id {inst.id!r}")
            seen.add(inst.id)

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


def load_dataset(path: str) -> Dataset:
    """Read a line-delimited JSON dataset.

    Each non-blank line is one record: ``{id, question, options, answer,
    analysis, metadata?}``.  Option labels and the answer are normalized to
    uppercase A..E.  Malformed lines raise DatasetFormatError naming the
    line number and field.
    """
    instances = read_jsonl(path, parse_record)
    try:
        return Dataset(tuple(instances))
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


def _stratified_indices(
    dataset: Dataset, test_size: int, rng: random.Random, key: str
) -> set[int]:
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(dataset):
        groups.setdefault(inst.metadata.get(key, "unknown"), []).append(i)
    n = len(dataset)
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
    if not 0 <= test_size <= len(dataset):
        raise ValueError(f"test_size must be in [0, {len(dataset)}], got {test_size}")
    rng = random.Random(rng_seed)
    if stratify_by is None:
        chosen = set(rng.sample(range(len(dataset)), test_size))
    else:
        chosen = _stratified_indices(dataset, test_size, rng, stratify_by)
    test = tuple(inst for i, inst in enumerate(dataset) if i in chosen)
    train = tuple(inst for i, inst in enumerate(dataset) if i not in chosen)
    return Dataset(test), Dataset(train)


def qo_text(inst: Instance) -> str:
    """Question plus all option texts, the surface scanned for question-side
    entities."""
    return "\n".join([inst.question, *inst.options.values()])


def map_in_order(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """Yield ``fn(item)`` for every item, in input order, from a pool of
    ``workers`` threads.

    At most ``workers`` items are submitted ahead of the last result taken,
    and the next item is submitted only when the consumer asks for another
    result, so where the consumer stops does not depend on thread timing.
    Closing the iterator (use ``contextlib.closing``) cancels what is still
    queued and waits for the calls already running.
    """
    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            window = deque(pool.submit(fn, item) for item in islice(items, workers))
            while window:
                yield window.popleft().result()
                window.extend(pool.submit(fn, item) for item in islice(items, 1))
        finally:
            pool.shutdown(cancel_futures=True)
