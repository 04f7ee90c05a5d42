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
    ChatClient,
    ClientConfig,
    ClientError,
    DEFAULT_API_KEY_ENV,
    DEFAULT_BASE_URL,
    DEFAULT_MODEL,
    RetryPolicy,
    TransportError,
)
from .corpus import DEFAULT_K, data_path, load_dataset, split_sample
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

# repeatable options per subcommand; a config file gives a list of strings,
# or one item as a string
_REPEATABLE = {"build-graph": ("annotated",), "run": ("group_by",), "report": ("group_by",)}

# namespace entries that are not pipeline options
_NOT_OPTIONS = ("command", "config", "verbose", "func")


class _Resolver:
    """Precedence: explicit flag, then config file entry, then _DEFAULTS."""

    def __init__(self, args: argparse.Namespace, config: dict[str, Any]):
        self._args = args
        self._config = config

    def get(self, key: str, required: bool = False) -> Any:
        value = getattr(self._args, key, None)
        if value is None:
            value = self._config.get(key)
        if value is None:
            value = _DEFAULTS.get(key)
        if value is None and required:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value

    def effective(self) -> dict[str, Any]:
        """Every option of the subcommand with its resolved value."""
        return {
            key: self.get(key) for key in vars(self._args) if key not in _NOT_OPTIONS
        }


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
    except (OSError, json.JSONDecodeError) as exc:
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


def _client_from(res: _Resolver) -> ChatClient:
    config = ClientConfig(
        backend=res.get("backend"),
        model=res.get("model"),
        base_url=res.get("base_url"),
        api_key_env=res.get("api_key_env"),
        temperature=float(res.get("temperature")),
        retry=RetryPolicy(
            max_attempts=int(res.get("max_attempts")),
            backoff_base=float(res.get("backoff_base")),
        ),
        timeout=float(res.get("timeout")),
        cache_dir=res.get("cache_dir"),
        fixture_path=res.get("fixture"),
    )
    return ChatClient(config)


def _extractor_from(res: _Resolver, client: ChatClient | None = None):
    from .entities import LexiconExtractor, LlmExtractor, load_extraction_exemplars, load_lexicon

    kind = res.get("extractor")
    if kind == "lexicon":
        lexicon_path = res.get("lexicon", required=True)
        return LexiconExtractor(load_lexicon(lexicon_path))
    if kind == "llm":
        exemplars = load_extraction_exemplars(
            res.get("extraction_exemplars") or data_path("extraction_exemplars.jsonl")
        )
        return LlmExtractor(client or _client_from(res), exemplars)
    raise ConfigError(f"unknown extractor {kind!r}")


# --- subcommands ----------------------------------------------------------

def cmd_annotate(res: _Resolver) -> int:
    from .entities import AnnotationError, annotate_dataset, save_annotated

    dataset = load_dataset(res.get("dataset", required=True))
    out_path = res.get("out", required=True)
    include_analysis = not res.get("no_analysis")
    extractor = _extractor_from(res)
    try:
        annotated = annotate_dataset(
            dataset,
            extractor,
            include_analysis=include_analysis,
            on_error=res.get("on_error"),
            workers=int(res.get("workers")),
        )
    except AnnotationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, TransportError) else 1
    save_annotated(annotated, out_path)
    log.info("annotated %d/%d instances -> %s", len(annotated), len(dataset), out_path)
    return 0


def cmd_build_graph(res: _Resolver) -> int:
    from .entities import load_annotated
    from .graph import build_graph, save_graph

    annotated = []
    for path in res.get("annotated", required=True):
        annotated.extend(load_annotated(path))
    graph = build_graph(annotated)
    out_path = res.get("out", required=True)
    save_graph(graph, out_path)
    log.info(
        "graph with %d nodes, %d edges from %d instances -> %s",
        graph.m, graph.edge_count, len(annotated), out_path,
    )
    return 0


def cmd_mine_seeds(res: _Resolver) -> int:
    from .entities import load_annotated
    from .graph import load_graph
    from .seeds import SeedQuery, SeedRecord, mine_seeds, save_seed_records

    annotated = load_annotated(res.get("annotated", required=True))
    graph = load_graph(res.get("graph", required=True))
    k = int(res.get("k"))
    records = []
    for ann in annotated:
        result = mine_seeds(graph, SeedQuery(ann.qo_entities), k)
        records.append(SeedRecord(ann.base.id, result, tuple(sorted(ann.qo_entities))))
    out_path = res.get("out", required=True)
    save_seed_records(records, out_path)
    log.info("mined seeds for %d instances -> %s", len(records), out_path)
    return 0


def cmd_run(res: _Resolver) -> int:
    effective = res.effective()
    out_dir = res.get("out_dir", required=True)
    dataset = load_dataset(res.get("dataset", required=True))
    test_size = effective["test_size"]
    if test_size is not None:
        dataset, _ = split_sample(
            dataset, int(test_size), int(effective["seed"]), effective["stratify_by"]
        )

    mode, shots = effective["mode"], effective["shots"]
    graph = extractor = None
    client = _client_from(res)
    if mode == "icp":
        graph_path = res.get("graph")
        if graph_path is None:
            raise ConfigError("mode=icp requires --graph")
        from .graph import load_graph

        graph = load_graph(graph_path)
        extractor = _extractor_from(res, client)

    exemplars = ()
    if shots == "few":
        exemplars = (
            load_exemplars(effective["exemplars"])
            if effective["exemplars"]
            else default_exemplars()
        )
    template = (
        load_template(effective["template"]) if effective["template"] else default_template()
    )
    spec = PromptSpec(
        mode=mode,
        shots=shots,
        exemplars=exemplars,
        context_tokens=int(effective["context_tokens"]),
        reserved_tokens=int(effective["reserved_tokens"]),
        template=template,
    )

    precomputed = None
    if effective["seeds"]:
        from .seeds import load_seed_records

        precomputed = {i: rec.result for i, rec in load_seed_records(effective["seeds"]).items()}
        for result in precomputed.values():
            if result.k != int(effective["k"]):
                raise ConfigError(f"{effective['seeds']}: seeds were mined with "
                                  f"k={result.k}, but this run uses k={effective['k']}")

    group_by = effective["group_by"]
    check_run_inputs(dataset, spec, graph, extractor, precomputed, int(effective["workers"]))
    os.makedirs(out_dir, exist_ok=True)
    effective["out_dir"] = out_dir
    effective["version"] = __version__
    effective["command"] = "run"
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(effective, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")

    try:
        records, report = run_eval(
            dataset,
            client,
            spec,
            graph=graph,
            extractor=extractor,
            k=int(effective["k"]),
            precomputed_seeds=precomputed,
            workers=int(effective["workers"]),
            group_by=group_by,
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


def cmd_report(res: _Resolver) -> int:
    records = load_records(res.get("records", required=True))
    group_by = res.get("group_by")
    report = build_report(records, group_by)
    out_path = res.get("out", required=True)
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
    client_opts.add_argument("--backend", choices=("live", "cached-live", "replay"))
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
    p.add_argument("--extractor", choices=("lexicon", "llm"))
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
    p.add_argument("--mode", choices=("standard_qa", "cot", "icp"))
    p.add_argument("--shots", choices=("zero", "few"))
    p.add_argument("--k", type=int)
    p.add_argument("--graph")
    p.add_argument("--lexicon")
    p.add_argument("--extractor", choices=("lexicon", "llm"))
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
        res = _Resolver(args, _load_config_file(args.config, parser, args))
        return args.func(res)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
