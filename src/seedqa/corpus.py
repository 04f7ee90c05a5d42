"""Multiple-choice QA datasets: loading, validation, splitting, writing an
output file whole, the one SHA-256, and mapping a function over instances
in input order on a thread pool."""

from __future__ import annotations

import json
import math
import os
import re
import unicodedata
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

if TYPE_CHECKING:
    # for an annotation only: split_sample imports random when it runs, and
    # data_path importlib.resources, so commands that call neither load neither
    import random

OPTION_LABELS = ("A", "B", "C", "D", "E")

# the option values the CLI's parser offers and defaults to, defined here so
# that building it loads neither the prompt nor the seed module: the prompt
# modes and shot settings, the context split, and the knowledge seeds mined
# per question, which the evaluation loop and the miner also read
MODES = ("standard_qa", "cot", "icp")
SHOTS = ("zero", "few")
DEFAULT_CONTEXT_TOKENS = 4097
DEFAULT_RESERVED_RESPONSE_TOKENS = 256
DEFAULT_K = 10


T = TypeVar("T")
R = TypeVar("R")


class DatasetFormatError(ValueError):
    """An input file violates its format; the message starts with the file's
    path, and with ``path:line`` for a defect in one line of the file."""


def read_lines(path: str, parse: Callable[[str], T]) -> Iterator[T]:
    """Yield ``parse`` of every non-blank line of a UTF-8 text file, in
    order, one line at a time: a caller that needs every value at once takes
    ``list()`` of it, and one that parses for side effects must consume it
    to the end.  The file is opened at the first value asked for and closed
    when the last is taken, or when the iterator is closed or collected.

    A KeyError, TypeError or ValueError raised by ``parse`` becomes
    DatasetFormatError naming ``path:line``.  A file that is not UTF-8
    raises DatasetFormatError naming ``path`` alone: the text is decoded in
    blocks, so the line is not known.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    value = parse(line)
                except KeyError as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: missing field {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: {exc}") from exc
                yield value
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is out of range for a float")
    return value


# json.loads with these hooks would build a decoder per line
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


# a JSON string; scanned from the start of valid JSON, every match is one,
# and none spans a line, since a string cannot hold a raw line feed
_JSON_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
# the escape of a UTF-16 surrogate, U+D800 to U+DFFF
_SURROGATE_ESCAPE = r"\\u[dD][89a-fA-F]"


def lone_surrogate(text: str) -> tuple[int, str] | None:
    """The 1-based line of ``text``, valid JSON, that holds the first
    string whose ``\\u`` escapes leave an unpaired surrogate, which UTF-8
    cannot encode, and a reason naming it; None when no string does.  An
    escaped pair such as ``"\\ud83d\\ude00"`` is one character, and legal.
    Only text that holds the escape of a surrogate is scanned, so text
    written with every other non-ASCII character escaped costs one search."""
    if "\\u" in text and re.search(_SURROGATE_ESCAPE, text):
        for match in re.finditer(_JSON_STRING, text):
            if re.search(_SURROGATE_ESCAPE, match.group()):
                try:
                    json.loads(match.group()).encode("utf-8")
                except UnicodeEncodeError as exc:
                    return (text.count("\n", 0, match.start()) + 1,
                            f"unpaired surrogate \\u{ord(exc.object[exc.start]):04x} "
                            f"in a JSON string")
    return None


def json_object_line(parse: Callable[[dict], T]) -> Callable[[str], T]:
    """A line parser for ``read_lines`` over line-delimited JSON: each line
    must hold a JSON object, which ``parse`` turns into a value.  Invalid
    JSON, an integer over Python's digit limit, nesting past the recursion
    limit and the non-standard ``NaN``, ``Infinity`` and ``-Infinity``
    included, a number too large for a float (``1e400``, which ``float``
    reads as infinity), a string that holds an unpaired surrogate
    (``lone_surrogate``), and a non-object line raise ValueError, so they
    are errors at ``path:line`` too.  Lines are read by one shared decoder,
    and a line that starts with U+FEFF is refused as ``json.loads`` refuses
    it."""

    def parse_line(line: str) -> T:
        try:
            if line.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                           line, 0)
            rec = _DECODER.decode(line)
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"invalid JSON ({exc})") from exc
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object")
        lone = lone_surrogate(line)
        if lone is not None:
            raise ValueError(lone[1])
        return parse(rec)

    return parse_line


def read_jsonl(path: str, parse: Callable[[dict], T]) -> list[T]:
    """Every value of a line-delimited JSON file, read by ``read_lines``
    with a ``json_object_line(parse)`` parser."""
    return list(read_lines(path, json_object_line(parse)))


# JSON field kinds by the phrase errors name them with: the types a value
# may have, and the type of each list item or object value.  Types match
# exactly, so bool is not a number here, though Python counts it as an int.
_FIELD_KINDS: dict[str, tuple[set[type], type | None]] = {
    "a string": ({str}, None),
    "a string or null": ({str, type(None)}, None),
    "a string or an integer": ({str, int}, None),
    "an integer": ({int}, None),
    "an integer or null": ({int, type(None)}, None),
    "a number": ({int, float, type(None)}, None),  # null: a metric that does not apply
    "true or false": ({bool}, None),
    "an object or null": ({dict, type(None)}, None),
    "an object of strings": ({dict}, str),
    "a list of strings": ({list}, str),
    "a list of integers": ({list}, int),
}


def json_field(rec: dict, key: str, kind: str, *default):
    """``rec[key]``, which must be of ``kind``, never converted; an absent
    key gives ``default`` when one is given.  Raises KeyError for an absent
    key and ValueError naming key, kind and value for a mistyped one."""
    if default and key not in rec:
        return default[0]
    value = rec[key]
    types, item = _FIELD_KINDS[kind]
    if type(value) not in types or item and set(
            map(type, value.values() if type(value) is dict else value)) - {item}:
        raise ValueError(f"{key!r} must be {kind}, got {value!r}")
    return value


# the one SHA-256, of requests and graphs; hashlib would load OpenSSL's libcrypto
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes, such as a FIPS build
        from hashlib import sha256


def write_whole(path: str, chunks: Iterable[str], mode: int = 0o666) -> None:
    """Write the concatenated ``chunks`` to ``path`` as UTF-8, whole or not
    at all.

    The text goes to a temp file beside ``path`` that then replaces it, so
    a failure or a kill part-way leaves any old file as it was.  On an
    exception the temp file is removed.  As with a plain ``open(path,
    "w")``, a symlink is written through, and the file gets ``mode`` under
    the umask (by default 0o666, as ``open`` gives).
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # the kernel applies the umask to mode, as it does for open(path, "w")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def data_path(name: str) -> str:
    """Path of a file shipped in the package's ``data`` directory."""
    from importlib import resources

    return str(resources.files(__package__).joinpath(f"data/{name}"))


def canonical_label(raw: object) -> str:
    """Normalize an option label: fullwidth to ASCII, uppercased, stripped."""
    return unicodedata.normalize("NFKC", str(raw)).strip().upper()


@dataclass
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


@dataclass
class Dataset:
    """Ordered collection of instances with unique ids.  The ids are
    checked once, when it is built, so nothing assigns ``instances`` later."""

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


def options_object(rec: dict) -> dict:
    """``rec["options"]``, which must be a JSON object."""
    options = rec["options"]
    if type(options) is not dict:
        raise ValueError("field 'options' must be an object")
    return options


def parse_record(rec: dict) -> Instance:
    """Build an Instance from one dataset record; raises KeyError for a
    missing field and ValueError for an invalid one."""
    options_raw = options_object(rec)
    options = {canonical_label(k): json_field(options_raw, k, "a string") for k in options_raw}
    if len(options) != len(options_raw):
        raise ValueError("option labels collide after normalization")
    metadata = rec.get("metadata")
    if metadata is None:
        metadata = {}
    elif type(metadata) is not dict:
        raise ValueError(f"field 'metadata' must be an object or null, got {metadata!r}")
    return Instance(
        id=str(json_field(rec, "id", "a string or an integer")),
        question=json_field(rec, "question", "a string"),
        options=options,
        answer=canonical_label(json_field(rec, "answer", "a string")),
        analysis=json_field(rec, "analysis", "a string"),
        metadata={k: str(json_field(metadata, k, "a string or an integer")) for k in metadata},
    )


def load_dataset(path: str) -> Dataset:
    """Read a line-delimited JSON dataset.

    Each non-blank line is one record: ``{id, question, options, answer,
    analysis, metadata?}``.  Option labels and the answer are normalized to
    uppercase A..E.  Malformed lines, and a line whose id an earlier line
    holds, raise DatasetFormatError naming the line number and field.
    """
    seen: set[str] = set()

    def parse(rec: dict) -> Instance:
        inst = parse_record(rec)
        if inst.id in seen:
            raise ValueError(f"duplicate instance id {inst.id!r}")
        seen.add(inst.id)
        return inst

    return Dataset(tuple(read_jsonl(path, parse)))


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
    import random

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
    queued and waits for the calls already running.  At one worker no pool
    starts: each call runs in the caller's thread when its result is asked
    for, the same calls in the same order.
    """
    if workers == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            window = deque(pool.submit(fn, item) for item in islice(items, workers))
            while window:
                yield window.popleft().result()
                window.extend(pool.submit(fn, item) for item in islice(items, 1))
        finally:
            pool.shutdown(cancel_futures=True)
