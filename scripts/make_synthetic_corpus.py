#!/usr/bin/env python3
"""Generate a synthetic JSONL corpus for overfitting experiments.

Each document carries a reference summary copied from a few of its own
sentences; pass --label to also fill extractive labels via the greedy oracle.
"""

import argparse

import numpy as np

from rnnsum.corpus import write_corpus
from rnnsum.oracle import label_corpus
from rnnsum.synthetic import synthetic_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output JSONL path")
    parser.add_argument("--docs", type=int, default=20)
    parser.add_argument("--vocab", type=int, default=60)
    parser.add_argument("--min-sentences", type=int, default=8)
    parser.add_argument("--max-sentences", type=int, default=12)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--label", action="store_true", help="fill extractive labels")
    args = parser.parse_args()

    docs = synthetic_corpus(
        np.random.default_rng(args.seed),
        n_docs=args.docs,
        vocab_size=args.vocab,
        sentence_range=(args.min_sentences, args.max_sentences),
    )
    if args.label:
        docs, stats = label_corpus(docs, "rouge1_f1")
        print(
            f"labeled: mean selected {stats.mean_selected:.2f}, "
            f"mean oracle score {stats.mean_score:.3f}"
        )
    write_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents -> {args.out}")


if __name__ == "__main__":
    main()
