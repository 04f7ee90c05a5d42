"""Each command imports only the modules it runs, and the package API stays
whole while it resolves names lazily.

Import checks run in a fresh interpreter with ``src`` on the path, so the
modules this test process has already loaded do not count.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seedqa
from seedqa.corpus import save_dataset
from seedqa.entities import LexiconExtractor, annotate_dataset, load_lexicon
from seedqa.graph import build_graph, save_graph
from seedqa.prompts import PromptSpec

from conftest import pipeline_requests, synth_dataset, write_lexicon, write_replay_fixture

SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH_STACK = {"seedqa.entities", "seedqa.graph", "seedqa.seeds"}

# every public name ``seedqa/__init__.py`` bound when it imported each module
# eagerly, and the modules that import bound as attributes
PUBLIC_NAMES = {
    "ChatClient", "ClientConfig", "CompletionRequest", "CompletionResponse", "RetryPolicy",
    "request_digest",
    "Dataset", "DatasetFormatError", "Instance", "load_dataset", "qo_text", "save_dataset",
    "split_sample",
    "AnnotatedInstance", "Lexicon", "LexiconExtractor", "LlmExtractor", "annotate_dataset",
    "extract_entities_lexicon", "load_annotated", "load_lexicon", "normalize_entity",
    "save_annotated",
    "EvalRecord", "EvalReport", "bleu_n", "build_report", "extract_answer", "rouge_l",
    "rouge_n", "run_eval", "seed_quality",
    "KnowledgeGraph", "build_graph", "load_graph", "save_graph",
    "Exemplar", "PromptSpec", "PromptTemplate", "RenderedPrompt", "compose",
    "default_exemplars", "default_template",
    "SeedQuery", "SeedResult", "mine_seeds",
    "estimate_tokens", "is_cjk", "script_runs", "tokenize",
}
MODULES = {"client", "corpus", "entities", "evaluation", "graph", "prompts", "seeds",
           "textseg"}

# prints the seedqa modules loaded after each step as one JSON object
PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("seedqa."))

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
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(argv=None) -> dict:
    args = () if argv is None else (json.dumps(argv),)
    return json.loads(run_python(PROBE, *args))


@pytest.fixture()
def replay_inputs(tmp_path):
    """Test split, lexicon and graph on disk, with a replay fixture that
    answers every standard_qa and icp prompt of the split."""
    train, test = synth_dataset(41, 8, prefix="tr"), synth_dataset(42, 3, prefix="te")
    test_path = tmp_path / "test.jsonl"
    save_dataset(test, str(test_path))
    lexicon_path = write_lexicon(tmp_path / "lexicon.txt")
    extractor = LexiconExtractor(load_lexicon(lexicon_path))
    graph = build_graph(annotate_dataset(train, extractor))
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


def test_cli_import_leaves_unused_standard_modules_unloaded():
    # ``-S`` skips site, whose .pth files may import these first; data_path
    # and split_sample import theirs when called, and the pool and HTTP
    # client load only with more than one worker or a live request
    script = """
import sys
import seedqa.cli
print(sorted({"importlib.resources", "random", "concurrent.futures", "requests"}
             & set(sys.modules)))
"""
    assert run_python(script, options=("-S",)) == "[]\n"


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
    assert not GRAPH_STACK & set(steps["cli"])
    assert steps["code"] == 0
    assert not GRAPH_STACK & set(steps["main"])
    records = replay_inputs["dir"] / "standard_qa" / "records.jsonl"
    assert len(records.read_text(encoding="utf-8").splitlines()) == 3


def test_icp_run_loads_the_graph_stack(replay_inputs):
    steps = probe(run_argv(replay_inputs, "icp"))
    assert steps["code"] == 0
    assert GRAPH_STACK <= set(steps["main"])
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
    from seedqa import cli, corpus, evaluation, seeds

    run_eval_k = inspect.signature(evaluation.run_eval).parameters["k"].default
    assert seeds.DEFAULT_K is corpus.DEFAULT_K == 10
    assert cli._DEFAULTS["k"] == run_eval_k == corpus.DEFAULT_K


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        seedqa.no_such_name
    with pytest.raises(ImportError):
        from seedqa import no_such_name  # noqa: F401
