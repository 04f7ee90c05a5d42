"""Each command imports only the modules it runs, and the package API stays
whole while it resolves names lazily.

Import checks run in a fresh interpreter with ``src`` on the path, so the
modules this test process has already loaded do not count.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seedqa
from seedqa.corpus import load_dataset
from seedqa.entities import annotate_stream, load_lexicon
from seedqa.graph import build_graph, save_graph
from seedqa.prompts import PromptSpec

from conftest import (
    pipeline_requests, synth_dataset, write_dataset, write_lexicon, write_replay_fixture,
)

SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH_STACK = {"seedqa.entities", "seedqa.graph", "seedqa.seeds"}

# what scores answers and composes prompts; only run and report load it
EVALUATION_STACK = {"seedqa.evaluation", "seedqa.prompts", "seedqa.textseg"}

# hashlib loads OpenSSL's libcrypto through _hashlib; no command loads it,
# as every digest takes the interpreter's built-in SHA-256
OPENSSL = {"hashlib", "_hashlib"}

# every public name the package exports, and its modules, which stay
# reachable as attributes
PUBLIC_NAMES = {
    "ChatClient", "ClientConfig", "CompletionRequest", "CompletionResponse", "request_digest",
    "Dataset", "DatasetFormatError", "Instance", "load_dataset", "qo_text", "split_sample",
    "AnnotatedInstance", "Lexicon", "LlmExtractor", "annotate_stream",
    "extract_entities_lexicon", "load_lexicon", "normalize_entity", "save_annotated",
    "EvalRecord", "EvalReport", "build_report", "extract_answer", "rouge_l", "run_eval",
    "seed_quality",
    "KnowledgeGraph", "build_graph", "load_graph", "save_graph",
    "Exemplar", "PromptSpec", "PromptTemplate", "RenderedPrompt", "compose",
    "default_exemplars", "default_template",
    "SeedQuery", "SeedResult", "mine_seeds",
    "estimate_tokens", "tokenize",
}
MODULES = {"client", "corpus", "entities", "evaluation", "graph", "prompts", "seeds",
           "textseg"}

# prints the seedqa modules, and hashlib and _hashlib, loaded after each
# step as one JSON object; with a second argument "fallback" the
# interpreter's built-in SHA-256 modules are blocked first
PROBE = """
import json, sys
if sys.argv[2:] == ["fallback"]:
    sys.modules["_sha2"] = sys.modules["_sha256"] = None

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("seedqa.") or m in ("hashlib", "_hashlib"))

import seedqa
steps = {"package": loaded()}
import seedqa.cli
steps["cli"] = loaded()
steps["code"] = seedqa.cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
steps["main"] = loaded()
print(json.dumps(steps))
"""


def run_python(script: str, *args: str, options: tuple[str, ...] = ()) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *options, "-c", script, *args], env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(argv=None, fallback: bool = False) -> dict:
    args = () if argv is None else (json.dumps(argv),)
    return json.loads(run_python(PROBE, *args, *("fallback",) * fallback))


@pytest.fixture()
def replay_inputs(tmp_path):
    """Test split, lexicon and graph on disk, with a replay fixture that
    answers every standard_qa and icp prompt of the split."""
    train, test = synth_dataset(41, 8, prefix="tr"), synth_dataset(42, 3, prefix="te")
    test_path = tmp_path / "test.jsonl"
    write_dataset(test, test_path)
    lexicon_path = write_lexicon(tmp_path / "lexicon.txt")
    extractor = load_lexicon(lexicon_path)
    graph = build_graph(annotate_stream(train, extractor))
    graph_path = tmp_path / "graph.kg"
    save_graph(graph, str(graph_path))
    requests = {}
    for mode in ("standard_qa", "icp"):
        by_id = pipeline_requests(test, PromptSpec(mode, "zero"), "gpt-3.5-turbo-0613",
                                  graph=graph, extractor=extractor)
        requests.update((f"{mode}:{iid}", request) for iid, request in by_id.items())
    responses = {key: "答案是A" for key in requests}
    fixture = write_replay_fixture(tmp_path / "fixture.jsonl", requests, responses)
    return {"dir": tmp_path, "test": str(test_path), "lexicon": lexicon_path,
            "graph": str(graph_path), "fixture": fixture}


def run_argv(inputs, mode: str) -> list[str]:
    return ["run", "--dataset", inputs["test"], "--mode", mode, "--backend", "replay",
            "--fixture", inputs["fixture"], "--graph", inputs["graph"],
            "--lexicon", inputs["lexicon"], "--out-dir", str(inputs["dir"] / mode)]


def test_import_seedqa_loads_no_submodule():
    assert probe()["package"] == []


def test_seed_preparing_commands_never_load_the_evaluation_stack(replay_inputs):
    d = replay_inputs["dir"]
    ann, graph, sidecar = (str(d / name) for name in ("te.ann.jsonl", "te.kg", "te.seeds.jsonl"))
    commands = (
        ["annotate", "--dataset", replay_inputs["test"], "--lexicon", replay_inputs["lexicon"],
         "--out", ann],
        ["build-graph", "--annotated", ann, "--out", graph],
        ["mine-seeds", "--annotated", ann, "--graph", graph, "--out", sidecar],
    )
    for argv in commands:
        steps = probe(argv)
        assert not (EVALUATION_STACK | OPENSSL) & set(steps["cli"])
        assert steps["code"] == 0, argv[0]
        assert not (EVALUATION_STACK | OPENSSL) & set(steps["main"]), argv[0]
    assert len(Path(sidecar).read_text(encoding="utf-8").splitlines()) == 3


def test_cli_import_leaves_unused_standard_modules_unloaded():
    # ``-S`` skips site, whose .pth files may import these first; data_path
    # and split_sample import theirs when called, and the pool and HTTP
    # client load only with more than one worker or a live request
    script = """
import sys
import seedqa.cli
print(sorted({"importlib.resources", "random", "concurrent.futures", "requests", "hashlib",
              "_hashlib", "urllib.request", "http.client"} & set(sys.modules)))
"""
    assert run_python(script, options=("-S",)) == "[]\n"


# prints the module that request_digest's SHA-256 comes from, whether
# hashlib is loaded, and the digest of one request; with the argument
# "fallback" the interpreter's built-in SHA-256 modules are blocked first
DIGEST_PROBE = """
import json, sys
if sys.argv[1:] == ["fallback"]:
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from seedqa.client import CompletionRequest, request_digest, sha256
digest = request_digest(CompletionRequest("m1", "hello", 0.0, 64))
print(json.dumps([sha256.__module__, "hashlib" in sys.modules, digest]))
"""

# the digest that tests/test_client.py computes for the same request
HELLO_DIGEST = hashlib.sha256(
    b'{"max_tokens":64,"model":"m1","prompt":"hello","temperature":0.0}').hexdigest()


def test_request_digest_uses_the_built_in_sha256():
    module, hashlib_loaded, digest = json.loads(run_python(DIGEST_PROBE, options=("-S",)))
    assert module == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert (hashlib_loaded, digest) == (False, HELLO_DIGEST)


def test_request_digest_falls_back_to_hashlib():
    # as on a build without the built-in hashes, such as a FIPS build
    module, hashlib_loaded, digest = json.loads(run_python(DIGEST_PROBE, "fallback"))
    assert hashlib_loaded and module != "_sha2" and module != "_sha256"
    assert digest == HELLO_DIGEST


def test_graph_checksum_falls_back_to_hashlib(replay_inputs):
    # as on a build without the built-in hashes, such as a FIPS build: the
    # seed-preparing commands and an icp run from a sidecar write the same
    # bytes, and only the blocked run loads hashlib
    d = replay_inputs["dir"]
    written = {}
    for fallback in (False, True):
        out = d / ("fallback" if fallback else "built_in")
        ann, graph, sidecar = (str(out / name) for name in ("te.ann.jsonl", "te.kg", "te.seeds"))
        commands = (
            ["annotate", "--dataset", replay_inputs["test"], "--lexicon",
             replay_inputs["lexicon"], "--out", ann],
            ["build-graph", "--annotated", ann, "--out", graph],
            # mined on the fixture's graph, so the icp run's prompts are the fixture's
            ["mine-seeds", "--annotated", ann, "--graph", replay_inputs["graph"],
             "--out", sidecar],
            [*run_argv(replay_inputs, "icp")[:-1], str(out / "icp"), "--seeds", sidecar],
        )
        out.mkdir()
        for argv in commands:
            steps = probe(argv, fallback)
            assert steps["code"] == 0, (argv[0], fallback)
            assert ("hashlib" in steps["main"]) == fallback, (argv[0], fallback)
        written[fallback] = [Path(path).read_bytes()
                             for path in (graph, sidecar, out / "icp" / "records.jsonl")]
    assert written[True] == written[False]


def _dataclasses():
    """(class node, its ``@dataclass`` decorator) for each dataclass in
    the package's source."""
    for path in sorted((SRC / "seedqa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if isinstance(target, ast.Name) and target.id == "dataclass":
                        yield node, decorator


def test_dataclasses_are_documented_and_frozen_only_where_cached():
    # a class without a docstring makes ``dataclass`` build one from
    # ``inspect.signature`` at import, and a frozen class costs about twice
    # a plain one to decorate; PromptSpec and PromptTemplate stay frozen
    # because PromptSpec caches what it computes from both
    found = list(_dataclasses())
    assert {"ClientConfig", "EvalRecord", "RenderedPrompt"} <= {node.name for node, _ in found}
    assert [node.name for node, _ in found if ast.get_docstring(node) is None] == []
    frozen = {node.name for node, decorator in found if isinstance(decorator, ast.Call)
              and any(kw.arg == "frozen" and ast.literal_eval(kw.value)
                      for kw in decorator.keywords)}
    assert frozen == {"PromptSpec", "PromptTemplate"}


def test_standard_qa_run_never_loads_the_graph_stack(replay_inputs):
    steps = probe(run_argv(replay_inputs, "standard_qa"))
    assert not (GRAPH_STACK | OPENSSL) & set(steps["cli"])
    assert steps["code"] == 0
    assert not (GRAPH_STACK | OPENSSL) & set(steps["main"])
    records = replay_inputs["dir"] / "standard_qa" / "records.jsonl"
    assert len(records.read_text(encoding="utf-8").splitlines()) == 3


def test_cot_run_neither_reads_nor_checks_a_seeds_sidecar(replay_inputs):
    # a sidecar that only icp reads, as a shared --config may give: a missing
    # file, and one mined with another k, leave the run as it is without one
    d = replay_inputs["dir"]
    test = load_dataset(replay_inputs["test"])
    requests = pipeline_requests(test, PromptSpec("cot", "zero"), "gpt-3.5-turbo-0613")
    fixture = write_replay_fixture(d / "cot_fixture.jsonl", requests,
                                   dict.fromkeys(requests, "头痛，故答案是A"))
    sidecar = d / "k10.seeds.jsonl"
    sidecar.write_text("".join(
        json.dumps({"id": inst.id, "query": [], "seeds": [], "scores": [], "k": 10}) + "\n"
        for inst in test), encoding="utf-8")
    records = {}
    for name, extra in (("plain", ()), ("missing", ("--seeds", str(d / "missing.jsonl"))),
                        ("other_k", ("--seeds", str(sidecar), "--k", "3"))):
        argv = ["run", "--dataset", replay_inputs["test"], "--mode", "cot", "--backend",
                "replay", "--fixture", fixture, "--out-dir", str(d / name), *extra]
        steps = probe(argv)
        assert steps["code"] == 0, name
        assert not (GRAPH_STACK | OPENSSL) & set(steps["main"]), name
        records[name] = (d / name / "records.jsonl").read_bytes()
    assert records["missing"] == records["other_k"] == records["plain"]
    assert [json.loads(line)["extracted_answer"] for line in records["plain"].splitlines()] \
        == ["A"] * 3


def test_icp_run_loads_the_graph_stack(replay_inputs):
    steps = probe(run_argv(replay_inputs, "icp"))
    assert steps["code"] == 0
    assert GRAPH_STACK <= set(steps["main"])
    # the graph's checksum takes the built-in SHA-256, as request digests do
    assert not OPENSSL & set(steps["main"])
    records = (replay_inputs["dir"] / "icp" / "records.jsonl").read_text(encoding="utf-8")
    assert all(json.loads(line)["seed_count"] is not None for line in records.splitlines())


# runs one command and prints whether it loaded the thread-pool module
POOL_PROBE = """
import json, sys
import seedqa.cli
code = seedqa.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "concurrent.futures" in sys.modules]))
"""


@pytest.mark.parametrize("workers, loads_pool", [("1", False), ("2", True)])
def test_one_worker_commands_never_load_the_pool(replay_inputs, workers, loads_pool):
    d = replay_inputs["dir"]
    annotate = ["annotate", "--dataset", replay_inputs["test"], "--lexicon",
                replay_inputs["lexicon"], "--out", str(d / f"ann{workers}.jsonl")]
    run = run_argv(replay_inputs, "icp")
    run[run.index("--out-dir") + 1] += workers
    for argv in (annotate, run):
        code, loaded = json.loads(run_python(POOL_PROBE, json.dumps([*argv, "--workers", workers])))
        assert (code, loaded) == (0, loads_pool), argv[0]


def test_public_names_resolve_lazily():
    # no name is bound before its first access; each then resolves to the
    # object its defining module holds, and each module name to the module
    script = """
import json, sys
import seedqa
names, modules = json.loads(sys.argv[1])
assert not (set(names) | set(modules)) & set(vars(seedqa))
for name in names:
    value = getattr(seedqa, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
for module in modules:
    assert getattr(seedqa, module) is sys.modules["seedqa." + module], module
print("ok")
"""
    assert run_python(script, json.dumps([sorted(PUBLIC_NAMES), sorted(MODULES)])) == "ok\n"


def test_public_api_is_whole():
    assert set(seedqa.__all__) == PUBLIC_NAMES | MODULES
    assert len(seedqa.__all__) == len(set(seedqa.__all__))
    assert PUBLIC_NAMES | MODULES <= set(dir(seedqa))
    star: dict = {}
    exec("from seedqa import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES | MODULES
    for name in PUBLIC_NAMES:
        imported: dict = {}
        exec(f"from seedqa import {name}", imported)
        assert imported[name] is star[name] is getattr(seedqa, name)
    assert seedqa.default_template() == star["default_template"]()


def test_default_k_is_defined_once():
    from seedqa import cli, corpus, evaluation, prompts, seeds

    run_eval_k = inspect.signature(evaluation.run_eval).parameters["k"].default
    assert seeds.DEFAULT_K is corpus.DEFAULT_K == 10
    assert cli._DEFAULTS["k"] == run_eval_k == corpus.DEFAULT_K
    # so are the other values the parser offers, which corpus holds for it
    # as it holds DEFAULT_K
    for name in ("MODES", "SHOTS", "DEFAULT_CONTEXT_TOKENS", "DEFAULT_RESERVED_RESPONSE_TOKENS"):
        assert getattr(prompts, name) is getattr(corpus, name), name
    spec = prompts.PromptSpec(cli._DEFAULTS["mode"], cli._DEFAULTS["shots"])
    assert (spec.mode, spec.shots) == (corpus.MODES[0], corpus.SHOTS[0])
    assert (cli._DEFAULTS["context_tokens"], cli._DEFAULTS["reserved_tokens"]) \
        == (spec.context_tokens, spec.reserved_tokens) \
        == (corpus.DEFAULT_CONTEXT_TOKENS, corpus.DEFAULT_RESERVED_RESPONSE_TOKENS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        seedqa.no_such_name
    with pytest.raises(ImportError):
        from seedqa import no_such_name  # noqa: F401


# every module of the package and of the benchmark, which CI also runs
SOURCES = sorted((SRC / "seedqa").glob("*.py")) + sorted((SRC.parent / "bench").rglob("*.py"))

# standard-library names that Python 3.11 or later added: modules, module
# attributes, builtins and methods
NEWER_MODULES = {"tomllib"}
NEWER_ATTRIBUTES = {
    "datetime": {"UTC"}, "hashlib": {"file_digest"}, "enum": {"StrEnum"},
    "asyncio": {"TaskGroup"}, "typing": {"Self", "LiteralString", "assert_never"},
    "contextlib": {"chdir"}, "operator": {"call"}, "math": {"cbrt", "exp2"},
    "itertools": {"batched"},
}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEWER_METHODS = {"add_note"}
# an atomic group or a possessive quantifier, which 3.10's re refuses
NEWER_REGEX = re.compile(r"\(\?>|(?<!\\)[*+?}]\+")
# the re functions whose first argument is a pattern; other strings, such as
# a docstring that says "C++", are prose
RE_PATTERN_CALLS = {"compile", "match", "search", "fullmatch", "sub", "subn", "findall",
                    "finditer", "split"}


def newer_than_3_10(source: str) -> list[str]:
    """The standard-library names in ``source``, and the syntax in the
    patterns it passes to ``re``, that Python 3.10 lacks, each as it is used."""
    nodes = list(ast.walk(ast.parse(source, feature_version=(3, 10))))
    modules: dict[str, str] = {}  # local name -> module, from each import
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            found += [alias.name for alias in node.names if alias.name in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEWER_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name in NEWER_ATTRIBUTES.get(node.module, ())]
    for node in nodes:
        if isinstance(node, ast.Attribute):
            module = modules.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if node.attr in NEWER_METHODS or node.attr in NEWER_ATTRIBUTES.get(module, ()):
                found.append(f"{module or ''}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and modules.get(node.func.value.id) == "re" and node.func.attr in RE_PATTERN_CALLS
              and node.args and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            found += NEWER_REGEX.findall(node.args[0].value)
    return found


def test_source_parses_as_python_3_10():
    """Every module parses with Python 3.10's grammar, the oldest version
    ``requires-python`` admits and CI lists.  This checks syntax only;
    ``test_source_uses_no_stdlib_newer_than_3_10`` checks names."""
    assert len(SOURCES) >= 15
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_source_uses_no_stdlib_newer_than_3_10():
    for path in SOURCES:
        assert newer_than_3_10(path.read_text(encoding="utf-8")) == [], path
    # the check finds each kind of use, and no pattern syntax in prose
    source = """
\"\"\"Written like C++: i++ and x?+ in prose are not patterns.\"\"\"
import datetime as dt, tomllib
from typing import Self
from itertools import batched
import re
dt.UTC, exc.add_note("x"), ExceptionGroup, re.compile(r"(?>a)b*+c")
"""
    assert sorted(newer_than_3_10(source)) == sorted([
        "tomllib", "typing.Self", "itertools.batched", "datetime.UTC", ".add_note",
        "ExceptionGroup", "(?>", "*+",
    ])
