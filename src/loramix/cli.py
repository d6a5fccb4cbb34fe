"""Command-line front end wiring curation, indexing, training, evaluation,
and reporting into reproducible runs.

Configuration is a single JSON document; command-line flags override
file values, which override built-in defaults. All relative paths
resolve against the current working directory, and every command writes
only beneath its configured output location. With stub clients a rerun
of any command under the same config and seed reproduces its outputs
byte for byte.

Config schema (all sections optional, defaults shown in DEFAULT_CONFIG):

    {
      "seed": 0,
      "train_frac": 0.8,
      "paths": {
        "corpus": "corpus",            directory of .txt documents
        "dataset": "dataset",          train.jsonl / test.jsonl live here
        "index": "artifacts/index.jsonl",
        "checkpoints": "checkpoints",
        "reports": "reports"
      },
      "retrieval": {"theta": 0.87, "target_size": 1000, "overlap": 100},
      "model": {"d_model": 64, ...},
      "adapter": {"n_experts": 8, "top_k": 2, "rank": 8, "alpha": 16.0},
      "train": {"lr": 0.0001, "batch_size": 16, "epochs": 2},
      "eval": {"max_new_tokens": 48, "qr_samples": 1,
               "use_stored_retrieval": false},
      "clients": {
        "embedder": {"kind": "trigram", "dim": 256,
                     "endpoint": null, "timeout": 10.0},  kind "http"
                                                          needs endpoint
        "generator": {"endpoint": ..., "model": ...,
                      "api_key_env": "GENERATOR_API_KEY"},
        "judges": [{"endpoint": ..., "api_key_env": "JUDGE_API_KEY"}]
      }
    }

DEFAULT_CONFIG is also the schema. A key it lacks is an error naming
its dotted path (e.g. "retrieval.thetaa"), and so is a value whose JSON
type differs from its default's, except that an integer may stand for a
float. The "generator" entry and each "judges" entry hold an "endpoint"
and optionally "model", "api_key_env" and "timeout", the arguments of
the HTTP clients; any other key, or a value of another type, is an
error, with stub clients too.

Credentials are never written to disk or passed on argv; clients read
them from the environment variables named in the config at call time.
Exit codes: 0 success, 2 usage or configuration error, 3 partial
evaluation failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from .curation import (HttpChatClient, StubGenerator, curate, load_records,
                       save_records)
from .errors import ConfigError, EvaluationError, StateError, _conforms
from .evaluation import (EvalConfig, EvalReport, HttpJudgeClient, StubJudge,
                         evaluate)
from .model import AdapterSpec, ToyCausalLm, ToyModelConfig
from .retrieval import (CorpusIndex, HttpEmbedderClient, RetrievalConfig,
                        TrigramEmbedder)
from .training import (TrainConfig, TrainExample, format_qa,
                       gradient_check, load_checkpoint, save_checkpoint,
                       train, write_loss_csv)

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "train_frac": 0.8,
    "paths": {
        "corpus": "corpus",
        "dataset": "dataset",
        "index": "artifacts/index.jsonl",
        "checkpoints": "checkpoints",
        "reports": "reports",
    },
    "retrieval": {"theta": 0.87, "target_size": 1000, "overlap": 100},
    "model": {"vocab_size": 256, "d_model": 64, "n_layers": 2, "n_heads": 2,
              "d_ff": 128, "max_seq_len": 256},
    "adapter": {"n_experts": 8, "top_k": 2, "rank": 8, "alpha": 16.0},
    "train": {"lr": 1e-4, "batch_size": 16, "epochs": 2},
    "eval": {"max_new_tokens": 48, "qr_samples": 1,
             "use_stored_retrieval": False},
    "clients": {
        "embedder": {"kind": "trigram", "dim": 256, "endpoint": None,
                     "timeout": 10.0},
        "generator": None,
        "judges": [],
    },
}


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """base overlaid with override, whose keys and value types base fixes.

    A None or list default takes the value whole; an int is widened to a
    float default.
    """
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {name!r}")
        default = base[key]
        if isinstance(default, dict) and isinstance(value, dict):
            out[key] = _merge(default, value, name + ".")
        elif default is None or isinstance(default, list):
            out[key] = copy.deepcopy(value)
        elif not _conforms(value, type(default)):
            raise ConfigError(f"config key {name!r} must be "
                              f"{type(default).__name__}, got {value!r}")
        else:
            out[key] = float(value) if type(default) is float else value
    return out


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the JSON document at path, when given."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, loaded)


def build_embedder(cfg: dict, stub: bool):
    spec = cfg["clients"]["embedder"]
    if stub or spec["kind"] == "trigram":
        return TrigramEmbedder(dim=spec["dim"])
    if spec["kind"] == "http":
        if spec["endpoint"] is None:
            raise ConfigError("http embedder needs an endpoint")
        return HttpEmbedderClient(spec["endpoint"], dim=spec["dim"],
                                  timeout=spec["timeout"])
    raise ConfigError(f"unknown embedder kind {spec['kind']!r}")


# The HTTP clients' constructor arguments a config entry may set, with
# the type of each.
CLIENT_KEYS = {"endpoint": str, "model": str, "api_key_env": str | None,
               "timeout": float}


def _client_spec(spec, name: str) -> dict:
    """spec, the HTTP client entry at dotted path name, once it is an
    object with an endpoint and only CLIENT_KEYS, of their types."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    for key, value in spec.items():
        dotted = f"{name}.{key}"
        if key not in CLIENT_KEYS:
            raise ConfigError(f"unknown config key {dotted!r}")
        if not _conforms(value, CLIENT_KEYS[key]):
            raise ConfigError(f"config key {dotted!r} has the wrong type, "
                              f"got {value!r}")
    if "endpoint" not in spec:
        raise ConfigError(f"config key {name!r} needs an endpoint")
    return spec


def build_generator(cfg: dict, stub: bool):
    spec = cfg["clients"]["generator"]
    if spec is None:
        return StubGenerator()
    spec = _client_spec(spec, "clients.generator")
    return StubGenerator() if stub else HttpChatClient(**spec)


def build_judges(cfg: dict, stub: bool) -> list:
    specs = [_client_spec(spec, f"clients.judges[{i}]")
             for i, spec in enumerate(cfg["clients"]["judges"])]
    if stub or not specs:
        return [StubJudge()]
    return [HttpJudgeClient(**spec) for spec in specs]


def _read_corpus(corpus_dir: str) -> list[tuple[str, str, str]]:
    """Documents as (doc_id, text, domain_tag), sorted by id.

    The domain tag is the first subdirectory under the corpus root, or
    "default" for top-level files.
    """
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ConfigError(f"corpus directory not found: {corpus_dir}")
    docs = []
    for path in sorted(root.rglob("*.txt")):
        rel = path.relative_to(root)
        doc_id = rel.with_suffix("").as_posix().replace("/", ".")
        domain = rel.parts[0] if len(rel.parts) > 1 else "default"
        docs.append((doc_id, path.read_text(encoding="utf-8"), domain))
    if not docs:
        raise ConfigError(f"no .txt documents under {corpus_dir}")
    return docs


def cmd_index(cfg: dict, stub: bool) -> int:
    from .retrieval import build_corpus_index
    docs = _read_corpus(cfg["paths"]["corpus"])
    embedder = build_embedder(cfg, stub)
    index = build_corpus_index([(doc_id, text) for doc_id, text, _ in docs],
                               RetrievalConfig(**cfg["retrieval"]),
                               embedder)
    index_path = Path(cfg["paths"]["index"])
    index_path.parent.mkdir(parents=True, exist_ok=True)
    index.save(index_path)
    print(f"indexed {len(docs)} document(s) into {len(index.chunks)} "
          f"chunk(s) at {index_path}")
    return 0


def cmd_curate(cfg: dict, stub: bool) -> int:
    docs = _read_corpus(cfg["paths"]["corpus"])
    embedder = build_embedder(cfg, stub)
    generator = build_generator(cfg, stub)
    result = curate(docs, generator, RetrievalConfig(**cfg["retrieval"]),
                    embedder, seed=cfg["seed"], train_frac=cfg["train_frac"])
    dataset_dir = Path(cfg["paths"]["dataset"])
    dataset_dir.mkdir(parents=True, exist_ok=True)
    save_records(dataset_dir / "train.jsonl", result.train)
    save_records(dataset_dir / "test.jsonl", result.test)
    index_path = Path(cfg["paths"]["index"])
    index_path.parent.mkdir(parents=True, exist_ok=True)
    result.index.save(index_path)

    domains: dict[str, int] = {}
    for record in result.records:
        domains[record.domain_tag] = domains.get(record.domain_tag, 0) + 1
    print(f"chunks: {len(result.index.chunks)}")
    print(f"records: {len(result.records)} "
          f"(train {len(result.train)}, test {len(result.test)})")
    for tag in sorted(domains):
        print(f"  domain {tag}: {domains[tag]}")
    return 0


def cmd_train(cfg: dict, stub: bool) -> int:
    dataset_dir = Path(cfg["paths"]["dataset"])
    train_path = dataset_dir / "train.jsonl"
    if not train_path.is_file():
        raise ConfigError(f"training dataset not found: {train_path}")
    records = load_records(train_path)
    examples = [format_qa(r.q, r.ground_truth) for r in records]
    train_cfg = TrainConfig(**cfg["train"], seed=cfg["seed"])
    model = ToyCausalLm(ToyModelConfig(**cfg["model"], seed=cfg["seed"]),
                        adapters=AdapterSpec(**cfg["adapter"]))
    result = train(model, examples, train_cfg)
    ckpt_dir = Path(cfg["paths"]["checkpoints"])
    save_checkpoint(ckpt_dir, model)
    write_loss_csv(ckpt_dir / "loss.csv", result.loss_trace)
    first = result.loss_trace[0] if result.loss_trace else float("nan")
    last = result.loss_trace[-1] if result.loss_trace else float("nan")
    print(f"trained {result.steps} step(s) on {len(examples)} example(s); "
          f"loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint: {ckpt_dir}")
    return 0


def cmd_eval(cfg: dict, mode: str, stub: bool) -> int:
    dataset_dir = Path(cfg["paths"]["dataset"])
    test_path = dataset_dir / "test.jsonl"
    if not test_path.is_file():
        raise ConfigError(f"evaluation dataset not found: {test_path}")
    ckpt_dir = Path(cfg["paths"]["checkpoints"])
    if not ckpt_dir.is_dir():
        raise ConfigError(f"checkpoint directory not found: {ckpt_dir}")
    records = load_records(test_path)
    model = load_checkpoint(ckpt_dir)

    embedder = build_embedder(cfg, stub)
    index = None
    if mode in ("open", "cross"):
        index_path = Path(cfg["paths"]["index"])
        if not index_path.is_file():
            raise ConfigError(f"corpus index not found: {index_path}")
        index = CorpusIndex.load(index_path)
    eval_cfg = EvalConfig(embedder=embedder,
                          retrieval=RetrievalConfig(**cfg["retrieval"]),
                          index=index,
                          judges=build_judges(cfg, stub),
                          generator=build_generator(cfg, stub),
                          **cfg["eval"])
    report = evaluate(records, model, mode, eval_cfg)

    reports_dir = Path(cfg["paths"]["reports"])
    reports_dir.mkdir(parents=True, exist_ok=True)
    (reports_dir / f"{mode}_report.json").write_text(report.to_json() + "\n",
                                                     encoding="utf-8")
    (reports_dir / f"{mode}_report.txt").write_text(report.to_table() + "\n",
                                                    encoding="utf-8")
    print(report.to_table())
    return 3 if report.partial else 0


def cmd_report(cfg: dict, mode: str) -> int:
    path = Path(cfg["paths"]["reports"]) / f"{mode}_report.json"
    if not path.is_file():
        raise ConfigError(f"no saved report at {path}")
    report = EvalReport.from_json(path.read_text(encoding="utf-8"))
    print(report.to_table())
    return 0


GRADCHECK_BOUND = 1e-5
# The audited model, kept small on purpose: the audit perturbs every
# trainable scalar.
GRADCHECK_MODEL = {"vocab_size": 128, "d_model": 16, "n_layers": 1,
                   "n_heads": 2, "d_ff": 32, "max_seq_len": 64}
GRADCHECK_ADAPTER = AdapterSpec(n_experts=4, top_k=2, rank=2, alpha=4.0)


def cmd_gradcheck(cfg: dict) -> int:
    model = ToyCausalLm(ToyModelConfig(**GRADCHECK_MODEL, seed=cfg["seed"]),
                        adapters=GRADCHECK_ADAPTER)
    example = TrainExample(prompt="Q: what color is the sky?\nA: ",
                           answer="blue")
    max_err = gradient_check(model, example)
    print(f"max relative error: {max_err:.3e}")
    return 0 if max_err <= GRADCHECK_BOUND else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loramix",
        description="Mixture-of-adapters training and evaluation pipeline.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    parser.add_argument("--stub-clients", action="store_true",
                        help="force offline deterministic clients")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("curate", help="chunk the corpus and generate QA records")
    sub.add_parser("index", help="build and save the retrieval index")
    sub.add_parser("train", help="fit adapters on the curated training split")
    p_eval = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p_eval.add_argument("--mode", required=True,
                        choices=["open", "closed", "cross"])
    p_report = sub.add_parser("report", help="print a saved report")
    p_report.add_argument("--mode", required=True,
                          choices=["open", "closed", "cross"])
    sub.add_parser("gradcheck",
                   help="finite-difference audit of the backward pass")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        stub = args.stub_clients
        if args.command == "curate":
            return cmd_curate(cfg, stub)
        if args.command == "index":
            return cmd_index(cfg, stub)
        if args.command == "train":
            return cmd_train(cfg, stub)
        if args.command == "eval":
            return cmd_eval(cfg, args.mode, stub)
        if args.command == "report":
            return cmd_report(cfg, args.mode)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, EvaluationError, StateError, FileNotFoundError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
