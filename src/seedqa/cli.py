"""Command-line interface.

Subcommands cover the pipeline stages: annotate, build-graph, mine-seeds,
run, report.  All options may come from a JSON config file (``--config``);
explicit flags win over the file, which wins over built-in defaults.
Diagnostics go to stderr, machine-readable output goes to files, and exit
codes are 0 (success), 1 (fatal configuration or I/O problem), and 2
(upstream API failures exhausted the retry budget).

The entity, graph and seed modules are imported inside the subcommands
that use them, so a ``standard_qa`` or ``cot`` run never loads them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Any, Sequence

from . import __version__
from .client import (
    BACKENDS,
    ChatClient,
    ClientConfig,
    ClientError,
    DEFAULT_API_KEY_ENV,
    DEFAULT_BASE_URL,
    DEFAULT_MODEL,
    RetryPolicy,
    TransportError,
)
from .corpus import DEFAULT_K, data_path, load_dataset, split_sample, write_whole
from .evaluation import (
    ApiExhaustionError,
    build_report,
    check_run_inputs,
    load_records,
    run_eval,
    save_records,
    save_report,
)
from .prompts import (
    DEFAULT_CONTEXT_TOKENS,
    DEFAULT_RESERVED_RESPONSE_TOKENS,
    MODES,
    SHOTS,
    PromptSpec,
    default_exemplars,
    default_template,
    load_exemplars,
    load_template,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool
    # reserves for upstream API exhaustion; funnel them to exit 1 instead
    def error(self, message: str):
        raise ConfigError(message)


# Built-in option values; an option missing here defaults to None.
_DEFAULTS: dict[str, Any] = {
    "seed": 0, "mode": "standard_qa", "shots": "zero", "k": DEFAULT_K, "group_by": (),
    "extractor": "lexicon", "on_error": "raise", "workers": 1,
    "backend": ClientConfig.backend, "model": DEFAULT_MODEL, "base_url": DEFAULT_BASE_URL,
    "api_key_env": DEFAULT_API_KEY_ENV, "temperature": ClientConfig.temperature,
    "max_attempts": RetryPolicy.max_attempts, "backoff_base": RetryPolicy.backoff_base,
    "timeout": ClientConfig.timeout,
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
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text ({exc.reason})") from exc
    except (OSError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
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
    config = ClientConfig(
        backend=opts["backend"],
        model=opts["model"],
        base_url=opts["base_url"],
        api_key_env=opts["api_key_env"],
        # annotate has no --temperature flag
        temperature=opts.get("temperature", _DEFAULTS["temperature"]),
        retry=RetryPolicy(max_attempts=opts["max_attempts"], backoff_base=opts["backoff_base"]),
        timeout=opts["timeout"],
        cache_dir=opts["cache_dir"],
        fixture_path=opts["fixture"],
    )
    return ChatClient(config)


def _extractor_from(opts: dict[str, Any], client: ChatClient | None = None):
    from .entities import LexiconExtractor, LlmExtractor, load_extraction_exemplars, load_lexicon

    # argparse checks the name against _EXTRACTORS, as a flag or a config value
    if opts["extractor"] == "lexicon":
        return LexiconExtractor(load_lexicon(_need(opts, "lexicon")))
    exemplars = load_extraction_exemplars(
        opts["extraction_exemplars"] or data_path("extraction_exemplars.jsonl")
    )
    return LlmExtractor(client or _client_from(opts), exemplars)


# --- subcommands ----------------------------------------------------------

def cmd_annotate(opts: dict[str, Any]) -> int:
    from .entities import AnnotationError, annotate_dataset, save_annotated

    dataset = load_dataset(_need(opts, "dataset"))
    out_path = _need(opts, "out")
    extractor = _extractor_from(opts)
    try:
        annotated = annotate_dataset(
            dataset,
            extractor,
            include_analysis=not opts["no_analysis"],
            on_error=opts["on_error"],
            workers=opts["workers"],
        )
    except AnnotationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, TransportError) else 1
    save_annotated(annotated, out_path)
    log.info("annotated %d/%d instances -> %s", len(annotated), len(dataset), out_path)
    return 0


def cmd_build_graph(opts: dict[str, Any]) -> int:
    from .entities import load_annotated
    from .graph import build_graph, save_graph

    annotated = []
    for path in _need(opts, "annotated"):
        annotated.extend(load_annotated(path))
    graph = build_graph(annotated)
    out_path = _need(opts, "out")
    save_graph(graph, out_path)
    log.info(
        "graph with %d nodes, %d edges from %d instances -> %s",
        graph.m, graph.edge_count, len(annotated), out_path,
    )
    return 0


def cmd_mine_seeds(opts: dict[str, Any]) -> int:
    from .entities import load_annotated
    from .graph import load_graph
    from .seeds import SeedQuery, SeedRecord, mine_seeds, save_seed_records

    if opts["k"] < 0:
        raise ConfigError("k must be non-negative")
    annotated = load_annotated(_need(opts, "annotated"))
    graph = load_graph(_need(opts, "graph"))
    records = []
    for ann in annotated:
        result = mine_seeds(graph, SeedQuery(ann.qo_entities), opts["k"])
        records.append(SeedRecord(ann.base.id, result, tuple(sorted(ann.qo_entities))))
    out_path = _need(opts, "out")
    save_seed_records(records, out_path)
    log.info("mined seeds for %d instances -> %s", len(records), out_path)
    return 0


def cmd_run(opts: dict[str, Any]) -> int:
    out_dir = _need(opts, "out_dir")
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

    precomputed = None
    if opts["seeds"]:
        from .seeds import load_seed_records

        precomputed = {i: rec.result for i, rec in load_seed_records(opts["seeds"]).items()}
        for result in precomputed.values():
            if result.k != opts["k"]:
                raise ConfigError(f"{opts['seeds']}: seeds were mined with "
                                  f"k={result.k}, but this run uses k={opts['k']}")

    check_run_inputs(dataset, spec, graph, extractor, opts["k"], precomputed, opts["workers"])
    os.makedirs(out_dir, exist_ok=True)
    config = json.dumps({**opts, "version": __version__, "command": "run"},
                        ensure_ascii=False, indent=2, sort_keys=True)
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
    log.info(
        "evaluated %d instances: accuracy %s%%, %d unresolved, %d errors -> %s",
        report.total, report.accuracy_pct, report.unresolved, report.errors, out_dir,
    )
    return 0


def cmd_report(opts: dict[str, Any]) -> int:
    records = load_records(_need(opts, "records"))
    report = build_report(records, opts["group_by"])
    out_path = _need(opts, "out")
    save_report(report, out_path)
    log.info("report over %d records -> %s", len(records), out_path)
    return 0


# --- parser ---------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="seedqa", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with option defaults")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="repeat for debug logging")

    client_opts = argparse.ArgumentParser(add_help=False)
    client_opts.add_argument("--backend", choices=BACKENDS)
    client_opts.add_argument("--model")
    client_opts.add_argument("--base-url", dest="base_url")
    client_opts.add_argument("--api-key-env", dest="api_key_env",
                             help="environment variable holding the API key")
    client_opts.add_argument("--fixture", help="replay fixture JSONL")
    client_opts.add_argument("--cache-dir", dest="cache_dir")
    client_opts.add_argument("--max-attempts", dest="max_attempts", type=int)
    client_opts.add_argument("--backoff-base", dest="backoff_base", type=float)
    client_opts.add_argument("--timeout", type=float)

    p = sub.add_parser("annotate", parents=[common, client_opts],
                       help="extract entity sets for every instance")
    p.add_argument("--dataset")
    p.add_argument("--out")
    p.add_argument("--lexicon")
    p.add_argument("--extractor", choices=_EXTRACTORS)
    p.add_argument("--extraction-exemplars", dest="extraction_exemplars")
    p.add_argument("--no-analysis", dest="no_analysis", action="store_const", const=True,
                   help="skip analysis-side extraction (unlabeled test sets)")
    p.add_argument("--on-error", dest="on_error", choices=("raise", "skip"))
    p.add_argument("--workers", type=int)
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

    p = sub.add_parser("run", parents=[common, client_opts],
                       help="evaluate a dataset end to end")
    p.add_argument("--dataset")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--shots", choices=SHOTS)
    p.add_argument("--k", type=int)
    p.add_argument("--graph")
    p.add_argument("--lexicon")
    p.add_argument("--extractor", choices=_EXTRACTORS)
    p.add_argument("--extraction-exemplars", dest="extraction_exemplars")
    p.add_argument("--seeds", help="precomputed seeds sidecar JSONL")
    p.add_argument("--exemplars", help="few-shot exemplars JSONL")
    p.add_argument("--template", help="prompt template JSON")
    p.add_argument("--group-by", dest="group_by", action="append",
                   help="metadata key for per-group tables (repeatable)")
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int, help="RNG seed for test subsampling")
    p.add_argument("--test-size", dest="test_size", type=int)
    p.add_argument("--stratify-by", dest="stratify_by")
    p.add_argument("--temperature", type=float)
    p.add_argument("--context-tokens", dest="context_tokens", type=int)
    p.add_argument("--reserved-tokens", dest="reserved_tokens", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", parents=[common],
                       help="rebuild an aggregate report from a records file")
    p.add_argument("--records")
    p.add_argument("--out")
    p.add_argument("--group-by", dest="group_by", action="append")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        level = logging.DEBUG if getattr(args, "verbose", 0) else logging.INFO
        logging.basicConfig(
            stream=sys.stderr,
            level=level,
            format="%(levelname)s %(name)s: %(message)s",
        )
        # each option: the explicit flag, else the config file, else _DEFAULTS
        config = _load_config_file(args.config, parser, args)
        opts = {}
        for key, flag in vars(args).items():
            if key not in _NOT_OPTIONS:
                value = config.get(key) if flag is None else flag
                opts[key] = _DEFAULTS.get(key) if value is None else value
        return args.func(opts)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
