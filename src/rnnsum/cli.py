"""Command-line entry point: make-labels, train, summarize, evaluate, inspect.

Every subcommand resolves one flat RunConfig (defaults < config file < flags),
writes it next to its outputs, and draws all randomness from the single seed,
so rerunning from the written config reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .corpus import (
    CorpusConfig,
    CorpusError,
    Document,
    build_vocab,
    encode,
    load_corpus,
    load_word_vectors,
    write_corpus,
)
from .evaluation import EvaluationError, SelectionPolicy, evaluate_corpus, select
from .model import (
    FACTORS,
    CheckpointError,
    ForwardResult,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
)
from .oracle import ORACLE_METRICS, OracleConfig, OracleError, label_corpus
from .rouge import LengthLimit
from .training import TrainConfig, TrainingError, train

RUN_CONFIG_NAME = "run_config.cfg"


class CliError(RuntimeError):
    pass


@dataclass
class RunConfig:
    """Flat, fully resolved configuration shared by all subcommands."""

    seed: int = 0
    # corpus
    max_sentences: int = 100
    max_words_per_sentence: int = 50
    vocab_cap: int = 150_000
    embedding_dim: int = 100
    # model
    hidden_dim: int = 200
    position_embedding_dim: int = 50
    num_rel_segments: int = 10
    decoder_hidden_dim: int = 0  # 0 -> hidden_dim
    decoder_ff_dim: int = 0  # 0 -> hidden_dim
    # training
    mode: str = "extractive"
    batch_size: int = 64
    max_epochs: int = 10
    patience: int = 3
    clip_norm: float = 5.0
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    # oracle
    oracle_metric: str = "rouge1_f1"
    oracle_max_selected: int = 0  # 0 -> unlimited
    # selection / metrics
    policy: str = "topk:3"
    limit: str = "none"
    flavor: str = "f1"

    def build(self, cls, **explicit):
        """A `cls` from this config's fields of the same name, then `explicit`."""
        names = {f.name for f in dataclasses.fields(self)}
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(cls) if f.name in names}
        return cls(**{**shared, **explicit})

    def to_text(self) -> str:
        lines = [
            f"{f.name} = {getattr(self, f.name)}"
            for f in sorted(dataclasses.fields(self), key=lambda f: f.name)
        ]
        return "\n".join(lines) + "\n"


def load_run_config(path: str | Path) -> RunConfig:
    """Parse a flat `key = value` config file (# starts a comment)."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or not key:
                raise CliError(f"{path}:{lineno}: expected `key = value`")
            if key not in fields:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = type(fields[key].default)(raw)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**values)


def resolve_config(args) -> RunConfig:
    """Defaults < config file < every flag whose dest names a RunConfig field."""
    config = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def write_run_config(path: Path, config: RunConfig) -> None:
    path.write_text(config.to_text(), encoding="utf-8")


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_make_labels(args) -> int:
    config = resolve_config(args)
    docs, skipped = load_corpus(args.input, config.build(CorpusConfig))
    if any(d.labels is not None for d in docs) and not args.overwrite:
        raise CliError("input already carries labels; pass --overwrite to relabel")
    labeled, stats = label_corpus(
        docs,
        OracleConfig(metric=config.oracle_metric, max_selected=config.oracle_max_selected or None),
    )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_corpus(labeled, out)
    _dump_json(
        Path(str(out) + ".stats.json"),
        {
            "documents": stats.documents,
            "skipped_empty": skipped,
            "mean_selected": stats.mean_selected,
            "mean_score": stats.mean_score,
        },
    )
    write_run_config(Path(str(out) + ".run_config.cfg"), config)
    print(f"labeled {stats.documents} documents -> {out} (skipped {skipped} empty)")
    return 0


def cmd_train(args) -> int:
    config = resolve_config(args)
    train_cfg = config.build(TrainConfig)
    out_dir = Path(args.out)  # `train` creates it once the corpora are checked
    corpus_cfg = config.build(CorpusConfig)
    train_docs, _ = load_corpus(args.train, corpus_cfg)
    valid_docs, _ = load_corpus(args.valid, corpus_cfg)
    if not train_docs:
        raise CliError("training corpus is empty")
    vocab = build_vocab(train_docs, config.vocab_cap)
    model_cfg = config.build(
        ModelConfig,
        vocab_size=len(vocab),
        max_abs_positions=config.max_sentences,
        decoder_enabled=config.mode == "abstractive",
        decoder_hidden_dim=config.decoder_hidden_dim or None,
        decoder_ff_dim=config.decoder_ff_dim or None,
    )

    embedding = None
    if args.embeddings:
        embedding, covered = load_word_vectors(
            args.embeddings, vocab, model_cfg.embedding_dim, np.random.default_rng([config.seed, 2])
        )
        print(f"loaded vectors for {covered}/{len(vocab) - 4} vocabulary tokens")

    store = ad.ParameterStore()
    params = init_params(model_cfg, store, np.random.default_rng([config.seed, 0]), embedding)
    report = train(store, params, vocab, train_docs, valid_docs, train_cfg, out_dir)
    write_run_config(out_dir / RUN_CONFIG_NAME, config)
    last = report.epochs[-1]
    print(
        f"stopped at epoch {report.stopped_epoch} (best {report.best_epoch}); "
        f"train loss {last.train_loss:.4f}, valid loss {last.valid_loss:.4f}"
    )
    if report.final_train_accuracy is not None:
        print(f"final training sentence-label accuracy: {report.final_train_accuracy:.4f}")
    if report.final_train_perplexity is not None:
        print(f"final training per-word perplexity: {report.final_train_perplexity:.4f}")
    print(f"best checkpoint: {out_dir / report.best_checkpoint}")
    return 0


def _docs_and_scorer(
    args, config: RunConfig, policy: SelectionPolicy
) -> tuple[list[Document], Callable[[Document], ForwardResult] | None]:
    """Read the input corpus and return it with the model's forward pass over
    one document. lead:N needs no model: it reads no checkpoint and gets None.

    Under a model the corpus is clipped to the model's position table.
    """
    corpus_cfg = config.build(CorpusConfig)
    if policy.kind == "lead":
        return load_corpus(args.input, corpus_cfg)[0], None
    if not args.checkpoint:
        limit = LengthLimit.parse(config.limit)
        raise CliError(f"policy {policy.describe(limit)} requires --checkpoint")
    try:
        _, params, model_cfg, vocab = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise CliError(f"checkpoint not found: {args.checkpoint}") from exc
    max_sentences = min(corpus_cfg.max_sentences, model_cfg.max_abs_positions)
    docs, _ = load_corpus(args.input, dataclasses.replace(corpus_cfg, max_sentences=max_sentences))
    return docs, lambda doc: forward(params, encode(doc, vocab))


def cmd_summarize(args) -> int:
    config = resolve_config(args)
    limit = LengthLimit.parse(config.limit)
    policy = SelectionPolicy.parse(config.policy)
    docs, run = _docs_and_scorer(args, config, policy)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "summaries.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        for doc in docs:
            probs = run(doc).probability_values() if run else None
            chosen = select(probs, doc, policy, limit)
            record = {
                "id": doc.doc_id,
                "selected_indices": chosen,
                "summary_sentences": [doc.sentences[i] for i in chosen],
                "probabilities": probs,
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    write_run_config(out_dir / RUN_CONFIG_NAME, config)
    print(f"wrote {len(docs)} summaries -> {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = resolve_config(args)
    limit = LengthLimit.parse(config.limit)
    if args.baseline and args.checkpoint:
        raise CliError("pass either --checkpoint or --baseline, not both")
    if not (args.baseline or args.checkpoint):
        raise CliError("evaluate needs --checkpoint or --baseline")
    policy = SelectionPolicy.parse(args.baseline or config.policy)
    if args.baseline and policy.kind != "lead":
        raise CliError("--baseline supports only lead:N")
    docs, run = _docs_and_scorer(args, config, policy)
    scorer = (lambda doc: run(doc).probability_values()) if run else None
    report = evaluate_corpus(scorer, docs, policy, limit, config.flavor)
    if not args.verbose:
        del report["per_document"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "evaluation_report.json", report)
    write_run_config(out_dir / RUN_CONFIG_NAME, config)

    print(f"policy {report['policy']}  limit {report['limit']}  flavor {report['flavor']}")
    print(f"{'variant':8s} {config.flavor:>8s}")
    for name in ("rouge1", "rouge2", "rougeL"):
        print(f"{name:8s} {report[name]:8.4f}")
    if args.metric:
        variant = {"r1": "rouge1", "r2": "rouge2", "rl": "rougeL"}[args.metric]
        print(f"{args.metric} = {report[variant]:.6f}")
    return 0


def cmd_inspect(args) -> int:
    config = resolve_config(args)
    # inspect always reads the model, whatever the configured policy
    docs, run = _docs_and_scorer(args, config, SelectionPolicy("prob"))
    if args.id is not None:
        doc = next((d for d in docs if d.doc_id == args.id), None)
        if doc is None:
            raise CliError(f"document id {args.id!r} not found in {args.input}")
    elif len(docs) == 1:
        doc = docs[0]
    else:
        raise CliError(f"{args.input} holds {len(docs)} documents; pass --id")

    result = run(doc)
    factors = result.factors
    # min-max scale each factor over the document; a constant factor reads 0
    lo, span = factors.min(axis=0), np.ptp(factors, axis=0)
    normalized = np.divide(factors - lo, span, out=np.zeros_like(factors), where=span != 0)
    rows = [
        {"index": i, **dict(zip(FACTORS, f)), "probability": p, "normalized": dict(zip(FACTORS, m))}
        for i, (f, p, m) in enumerate(
            zip(factors.tolist(), result.probability_values(), normalized.tolist())
        )
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(out_dir / "inspect.json", {"id": doc.doc_id, "sentences": rows})
    write_run_config(out_dir / RUN_CONFIG_NAME, config)

    header = "sent  " + "".join(f"{name:>10s}" for name in FACTORS) + f"{'prob':>10s}"
    print(f"document {doc.doc_id}")
    print(header)
    for row in rows:
        cells = "".join(f"{row[name]:10.4f}" for name in FACTORS)
        print(f"{row['index']:4d}  {cells}{row['probability']:10.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnsum",
        description="GRU sequence classifier for extractive summarization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="seed for all randomness")

    p = sub.add_parser("make-labels", help="fill extractive labels via the greedy oracle")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--metric", choices=ORACLE_METRICS, dest="oracle_metric", help="oracle selection metric"
    )
    p.add_argument(
        "--max-selected", type=int, dest="oracle_max_selected", metavar="MAX_SELECTED"
    )
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_make_labels)

    p = sub.add_parser("train", help="train the classifier")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("extractive", "abstractive"))
    p.add_argument("--embeddings", help="word2vec text file for embedding init")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", help="emit selected sentences per document")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", help="prob | topk:K | lead:N")
    p.add_argument("--limit", help="none | bytes:N | words:N")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="aggregate ROUGE over a corpus")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", help="lead:N baseline, bypasses any checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", help="prob | topk:K | lead:N")
    p.add_argument("--limit", help="none | bytes:N | words:N")
    p.add_argument("--flavor", choices=("recall", "f1"))
    p.add_argument("--metric", choices=("r1", "r2", "rl"), help="headline metric to print")
    p.add_argument("--verbose", action="store_true", help="include per-document scores")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="per-sentence factor breakdown for one document")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--id", help="document id (optional for single-document files)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        CorpusError,
        OracleError,
        TrainingError,
        EvaluationError,
        CheckpointError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
