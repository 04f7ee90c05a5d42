"""Command-line interface.

Subcommands cover the pipeline stages: annotate, build-graph, mine-seeds,
run, report.  All options may come from a JSON config file (``--config``);
explicit flags win over the file, which wins over built-in defaults.
Diagnostics go to stderr, machine-readable output goes to files, and exit
codes are 0 (success), 1 (fatal configuration or I/O problem), and 2
(upstream API failures exhausted the retry budget).  Exit 2 is decided in
two places: ``cmd_annotate``, when an extraction call gave up on its
transport, and ``cmd_run``, after too many consecutive transport failures.

At module level only the client and corpus modules are imported, which
building the parser and dispatching need.  Every other module is imported
inside the subcommands that use it: the evaluation and prompt modules (and
the tokenizer they load) by ``run`` and ``report``, and the entity, graph
and seed modules by annotate, build-graph, mine-seeds and ``icp`` runs.  So
the three commands that prepare the seeds never load the evaluation stack,
and a ``standard_qa`` or ``cot`` run never loads the graph stack.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from typing import Any, Sequence

from . import __version__
from .client import BACKENDS, ChatClient, ClientConfig, TransportError
from .corpus import (
    DEFAULT_CONTEXT_TOKENS, DEFAULT_K, DEFAULT_RESERVED_RESPONSE_TOKENS, MODES, SHOTS, data_path,
    load_dataset, lone_surrogate, read_dataset, split_sample, write_whole,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for upstream API exhaustion; funnel them to exit 1 instead
    def error(self, message: str):
        raise ConfigError(message)


# Built-in option values; an option missing here defaults to None.  The
# client options are ClientConfig's fields, with its defaults.
_CLIENT_FIELDS = fields(ClientConfig)
_DEFAULTS: dict[str, Any] = {
    **{f.name: f.default for f in _CLIENT_FIELDS},
    "seed": 0, "mode": "standard_qa", "shots": "zero", "k": DEFAULT_K, "group_by": (),
    "extractor": "lexicon", "on_error": "raise", "workers": 1,
    "context_tokens": DEFAULT_CONTEXT_TOKENS,
    "reserved_tokens": DEFAULT_RESERVED_RESPONSE_TOKENS,
}

_EXTRACTORS = ("lexicon", "llm")

# repeatable options per subcommand; a config file gives a list of strings,
# or one item as a string
_REPEATABLE = {"build-graph": ("annotated",), "run": ("group_by",), "report": ("group_by",)}

# namespace entries that are not pipeline options
_NOT_OPTIONS = ("command", "config", "verbose", "func")


def _need(opts: dict[str, Any], key: str) -> Any:
    if opts[key] is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return opts[key]


def _load_config_file(path: str | None, parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> dict[str, Any]:
    """The options of ``args.command`` that the config file sets, each read
    as its flag would be: ``"workers": 2`` as ``--workers=2``, and
    ``"no_analysis": true`` as ``--no-analysis``.  Other keys are ignored."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text ({exc.reason})") from exc
    except (OSError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    lone = lone_surrogate(text)
    if lone is not None:
        raise ConfigError(f"{path}:{lone[0]}: {lone[1]}")
    options = vars(args).keys() - set(_NOT_OPTIONS)
    repeatable = _REPEATABLE.get(args.command, ())
    config = {}
    for key, value in data.items():
        if key not in options or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        try:
            if key in repeatable:
                items = [value] if type(value) is str else value
                if type(items) is not list or set(map(type, items)) - {str}:
                    raise ConfigError(f"must be a string or a list of strings, got {value!r}")
                argv = [f"{flag}={item}" for item in items]
            elif type(value) is bool:  # true sets a flag that takes no value
                argv = [flag]
            elif type(value) in (str, int, float):
                argv = [f"{flag}={value}"]
            else:
                raise ConfigError(f"must be a string or a number, got {value!r}")
            parsed = getattr(parser.parse_args([args.command, *argv]), key)
        except ConfigError as exc:
            raise ConfigError(f"config file {path}: {key!r}: {exc}") from exc
        if value is not False:
            config[key] = parsed
    return config


def _client_from(opts: dict[str, Any]) -> ChatClient:
    # a field with no option of the command (annotate's temperature) keeps its default
    settings = {f.name: opts[f.name] for f in _CLIENT_FIELDS if f.name in opts}
    return ChatClient(ClientConfig(**settings, fixture_path=opts["fixture"]))


def _extractor_from(opts: dict[str, Any], client: ChatClient | None = None):
    from .entities import LlmExtractor, load_extraction_exemplars, load_lexicon

    # argparse checks the name against _EXTRACTORS, as a flag or a config value
    if opts["extractor"] == "lexicon":
        return load_lexicon(_need(opts, "lexicon"))
    exemplars = load_extraction_exemplars(
        opts["extraction_exemplars"] or data_path("extraction_exemplars.jsonl")
    )
    return LlmExtractor(client or _client_from(opts), exemplars)


# --- subcommands ----------------------------------------------------------

def cmd_annotate(opts: dict[str, Any]) -> int:
    """Annotate each dataset record as it is read and write it to ``--out``
    as it is annotated, holding no list of records.  The extractor (and its
    client) is loaded first and the output's temporary file is opened next,
    before the first dataset line is read: when inputs are bad, the error
    names the lexicon, then ``--out``, then the dataset line.  A bad line is
    found after the records before it were annotated; the output is still
    written whole or not at all."""
    from .entities import AnnotationError, annotate_stream, save_annotated

    dataset_path, out_path = _need(opts, "dataset"), _need(opts, "out")
    extractor = _extractor_from(opts)
    seen: set[str] = set()
    annotated = annotate_stream(
        read_dataset(dataset_path, seen),
        extractor,
        include_analysis=not opts["no_analysis"],
        on_error=opts["on_error"],
        workers=opts["workers"],
    )
    try:
        count = save_annotated(annotated, out_path)
    except AnnotationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, TransportError) else 1
    log.info("annotated %d/%d instances -> %s", count, len(seen), out_path)
    return 0


def cmd_build_graph(opts: dict[str, Any]) -> int:
    from .entities import read_annotated
    from .graph import build_graph, save_graph

    paths, out_path = _need(opts, "annotated"), _need(opts, "out")
    seen: set[str] = set()
    # records are parsed one at a time, and build_graph keeps only their entity sets
    graph = build_graph(read_annotated(paths, seen))
    save_graph(graph, out_path)
    log.info(
        "graph with %d nodes, %d edges from %d instances -> %s",
        graph.m, graph.edge_count, len(seen), out_path,
    )
    return 0


def cmd_mine_seeds(opts: dict[str, Any]) -> int:
    from .entities import read_annotated
    from .graph import load_graph
    from .seeds import SeedQuery, SeedRecord, mine_seeds, save_seed_records

    if opts["k"] < 0:
        raise ConfigError("k must be non-negative")
    ann_path, graph_path, out_path = (_need(opts, key) for key in ("annotated", "graph", "out"))
    # the graph is read first, so when both files are bad the error names it
    graph = load_graph(graph_path)
    seen: set[str] = set()
    # records are parsed one at a time, each mined as the sidecar takes it
    save_seed_records((
        SeedRecord(ann.base.id, mine_seeds(graph, SeedQuery(ann.qo_entities), opts["k"]),
                   tuple(sorted(ann.qo_entities)))
        for ann in read_annotated((ann_path,), seen)
    ), out_path)
    log.info("mined seeds for %d instances -> %s", len(seen), out_path)
    return 0


def cmd_run(opts: dict[str, Any]) -> int:
    from .evaluation import (
        ApiExhaustionError, check_run_inputs, run_eval, save_records, save_report,
    )
    from .prompts import (
        PromptSpec, default_exemplars, default_template, load_exemplars, load_template,
    )

    out_dir = _need(opts, "out_dir")
    # config.json is UTF-8: an option that holds bytes UTF-8 cannot encode,
    # such as a path argument that is not UTF-8, fails before any file is read
    for key, value in opts.items():
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"--{key.replace('_', '-')} is not UTF-8 text: {value!r}") from exc
    config = json.dumps({**opts, "version": __version__, "command": "run"},
                        ensure_ascii=False, indent=2, sort_keys=True)
    dataset = load_dataset(_need(opts, "dataset"))
    if opts["test_size"] is not None:
        dataset, _ = split_sample(dataset, opts["test_size"], opts["seed"], opts["stratify_by"])

    mode, shots = opts["mode"], opts["shots"]
    graph = extractor = None
    client = _client_from(opts)
    if mode == "icp":
        if opts["graph"] is None:
            raise ConfigError("mode=icp requires --graph")
        from .graph import load_graph

        graph = load_graph(opts["graph"])
        extractor = _extractor_from(opts, client)

    exemplars = ()
    if shots == "few":
        exemplars = load_exemplars(opts["exemplars"]) if opts["exemplars"] else default_exemplars()
    template = load_template(opts["template"]) if opts["template"] else default_template()
    spec = PromptSpec(
        mode=mode,
        shots=shots,
        exemplars=exemplars,
        context_tokens=opts["context_tokens"],
        reserved_tokens=opts["reserved_tokens"],
        template=template,
    )

    # like --graph, the sidecar is read only by the mode that uses it
    precomputed = None
    if mode == "icp" and opts["seeds"]:
        from .seeds import load_seed_records

        precomputed = {i: rec.result for i, rec in load_seed_records(opts["seeds"]).items()}
        for result in precomputed.values():
            if result.k != opts["k"]:
                raise ConfigError(f"{opts['seeds']}: seeds were mined with "
                                  f"k={result.k}, but this run uses k={opts['k']}")

    check_run_inputs(dataset, spec, graph, extractor, opts["k"], precomputed, opts["workers"])
    os.makedirs(out_dir, exist_ok=True)
    write_whole(os.path.join(out_dir, "config.json"), (config, "\n"))

    try:
        records, report = run_eval(
            dataset,
            client,
            spec,
            graph=graph,
            extractor=extractor,
            k=opts["k"],
            precomputed_seeds=precomputed,
            workers=opts["workers"],
            group_by=opts["group_by"],
        )
    except ApiExhaustionError as exc:
        save_records(exc.records, os.path.join(out_dir, "records.jsonl"))
        log.error("%s; %d records flushed", exc, len(exc.records))
        return 2

    save_records(records, os.path.join(out_dir, "records.jsonl"))
    save_report(report, os.path.join(out_dir, "report.json"))
    accuracy = "n/a" if report.accuracy_pct is None else f"{report.accuracy_pct}%"
    log.info(
        "evaluated %d instances: accuracy %s, %d unresolved, %d errors -> %s",
        report.total, accuracy, report.unresolved, report.errors, out_dir,
    )
    return 0


def cmd_report(opts: dict[str, Any]) -> int:
    from .evaluation import build_report, load_records, save_report

    records = load_records(_need(opts, "records"))
    report = build_report(records, opts["group_by"])
    out_path = _need(opts, "out")
    save_report(report, out_path)
    log.info("report over %d records -> %s", len(records), out_path)
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="seedqa", description=(
        "Mine knowledge seeds from an entity co-occurrence graph and evaluate multiple-choice "
        "QA with them.  Flags win over a JSON --config file.  Exit codes: 0 success, "
        "1 configuration or I/O error, 2 API retries exhausted."))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with option defaults")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="repeat for debug logging")

    client_opts = argparse.ArgumentParser(add_help=False)
    client_opts.add_argument("--backend", choices=BACKENDS)
    client_opts.add_argument("--model")
    client_opts.add_argument("--base-url")
    client_opts.add_argument("--api-key-env", help="environment variable holding the API key")
    client_opts.add_argument("--fixture", help="replay fixture JSONL")
    client_opts.add_argument("--cache-dir")
    client_opts.add_argument("--max-attempts", type=int)
    client_opts.add_argument("--backoff-base", type=float)
    client_opts.add_argument("--timeout", type=float)

    dataset_opts = argparse.ArgumentParser(add_help=False)
    dataset_opts.add_argument("--dataset")
    dataset_opts.add_argument("--lexicon")
    dataset_opts.add_argument("--extractor", choices=_EXTRACTORS)
    dataset_opts.add_argument("--extraction-exemplars")
    dataset_opts.add_argument("--workers", type=int)

    p = sub.add_parser("annotate", parents=[common, client_opts, dataset_opts],
                       help="extract entity sets for every instance")
    p.add_argument("--out")
    p.add_argument("--no-analysis", action="store_const", const=True,
                   help="skip analysis-side extraction (unlabeled test sets)")
    p.add_argument("--on-error", choices=("raise", "skip"))
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("build-graph", parents=[common],
                       help="accumulate the co-occurrence graph from annotated files")
    p.add_argument("--annotated", action="append")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("mine-seeds", parents=[common],
                       help="mine knowledge seeds for each annotated instance")
    p.add_argument("--annotated")
    p.add_argument("--graph")
    p.add_argument("--out")
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_mine_seeds)

    p = sub.add_parser("run", parents=[common, client_opts, dataset_opts],
                       help="evaluate a dataset end to end")
    p.add_argument("--out-dir")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--shots", choices=SHOTS)
    p.add_argument("--k", type=int)
    p.add_argument("--graph")
    p.add_argument("--seeds", help="precomputed seeds sidecar JSONL")
    p.add_argument("--exemplars", help="few-shot exemplars JSONL")
    p.add_argument("--template", help="prompt template JSON")
    p.add_argument("--group-by", action="append",
                   help="metadata key for per-group tables (repeatable)")
    p.add_argument("--seed", type=int, help="RNG seed for test subsampling")
    p.add_argument("--test-size", type=int)
    p.add_argument("--stratify-by")
    p.add_argument("--temperature", type=float)
    p.add_argument("--context-tokens", type=int)
    p.add_argument("--reserved-tokens", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common],
                       help="rebuild an aggregate report from a records file")
    p.add_argument("--records")
    p.add_argument("--out")
    p.add_argument("--group-by", action="append")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
                            level=logging.DEBUG if args.verbose else logging.INFO)
        # each option: the explicit flag, else the config file, else _DEFAULTS
        config = _load_config_file(args.config, parser, args)
        opts = {}
        for key, flag in vars(args).items():
            if key not in _NOT_OPTIONS:
                value = config.get(key) if flag is None else flag
                opts[key] = _DEFAULTS.get(key) if value is None else value
        return args.func(opts)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
