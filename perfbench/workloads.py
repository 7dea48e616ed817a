"""Workload definitions and their seeded synthetic corpora.

Every document of a workload has the same shape (sentence count, words per
sentence, reference length), so per-document cost is constant and a phase's
rate depends on the program, not on which documents a seed happened to draw.
The program only ever sees the JSONL files written from these corpora.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    index: int  # mixes into the corpus seed so workloads draw different text
    # corpus shape
    n_docs: int
    n_sentences: int
    n_words: int
    token_pool: int
    summary: str  # "copy": reference copies sentences; "mixed": paraphrased sentences
    summary_sentences: int
    summary_words: int = 0  # words per reference sentence for "mixed"
    # train = first n_train labelled documents, valid = the next n_valid,
    # test = the last n_test documents of the corpus (may overlap the others)
    n_train: int = 1
    n_valid: int = 1
    n_test: int = 1
    oracle_sample: int = 4  # documents re-labelled by the independent greedy oracle
    # labelling, summarizing and evaluating each run once per slice of their input
    slices: int = 3
    # program configuration
    mode: str = "extractive"
    oracle_metric: str = "rouge1_f1"
    embedding_dim: int = 100
    hidden_dim: int = 200
    position_embedding_dim: int = 50
    num_rel_segments: int = 10
    max_sentences: int = 100
    max_words_per_sentence: int = 50
    batch_size: int = 4
    epochs: int = 1
    policy: str = "topk:3"
    limit: str = "none"
    flavor: str = "f1"

    def __post_init__(self):
        if self.n_docs % self.slices or self.n_test % self.slices:
            raise ValueError(f"{self.name}: n_docs and n_test must divide into {self.slices} slices")
        if self.n_train + self.n_valid > self.n_docs // self.slices:
            raise ValueError(f"{self.name}: training and validation documents must fit in slice 0")
        if self.n_test > self.n_docs:
            raise ValueError(f"{self.name}: more test documents than documents")

    def config_text(self, seed: int) -> str:
        """The flat `key = value` run config the program reads with --config."""
        values = {
            "seed": seed,
            "max_sentences": self.max_sentences,
            "max_words_per_sentence": self.max_words_per_sentence,
            "embedding_dim": self.embedding_dim,
            "hidden_dim": self.hidden_dim,
            "position_embedding_dim": self.position_embedding_dim,
            "num_rel_segments": self.num_rel_segments,
            "mode": self.mode,
            "batch_size": self.batch_size,
            "max_epochs": self.epochs,
            "patience": self.epochs,  # never stop early: every run steps the same docs
            "oracle_metric": self.oracle_metric,
            "policy": self.policy,
            "limit": self.limit,
            "flavor": self.flavor,
        }
        return "".join(f"{k} = {v}\n" for k, v in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="extractive-paper",
            why="paper dims on 30x25 documents with copied references: word and "
            "sentence GRUs, tape and backward dominate; labelling is all greedy oracle",
            index=1,
            n_docs=750,
            n_sentences=30,
            n_words=25,
            token_pool=500,
            summary="copy",
            summary_sentences=3,
            n_train=7,
            n_valid=2,
            n_test=18,
            batch_size=4,
            epochs=1,
        ),
        Workload(
            name="abstractive-vocab",
            why="paper dims, short documents, 64-word references and a vocabulary of about "
            "1,800: decoder output layer, optimiser and checkpoint I/O dominate",
            index=2,
            n_docs=12000,
            n_sentences=4,
            n_words=10,
            token_pool=40000,
            summary="mixed",
            summary_sentences=2,
            summary_words=32,
            n_train=20,
            n_valid=2,
            n_test=360,
            slices=2,
            mode="abstractive",
            batch_size=2,
            epochs=1,
            policy="prob",
            limit="bytes:75",
            flavor="recall",
        ),
    )
}


@dataclass
class Corpus:
    docs: list[dict]  # JSONL records as the program reads them
    copied: list[list[int]]  # per doc, the sentences its reference copies ("copy" only)


def generate(workload: Workload, seed: int) -> Corpus:
    """Draw the workload's corpus; the same seed gives the same corpus."""
    rng = np.random.default_rng([seed, workload.index])
    width = len(str(workload.token_pool - 1))
    pool = [f"t{i:0{width}d}" for i in range(workload.token_pool)]
    docs, copied = [], []
    for d in range(workload.n_docs):
        ids = rng.integers(0, workload.token_pool, size=(workload.n_sentences, workload.n_words))
        sentences = [[pool[i] for i in row] for row in ids]
        if workload.summary == "copy":
            chosen = sorted(
                int(i) for i in rng.choice(workload.n_sentences, workload.summary_sentences, replace=False)
            )
            summary = [list(sentences[i]) for i in chosen]
        else:
            # paraphrase: a source sentence with about half its words replaced,
            # padded with fresh words to the reference sentence length
            chosen = []
            summary = []
            for _ in range(workload.summary_sentences):
                source = ids[int(rng.integers(0, workload.n_sentences))]
                keep = rng.random(len(source)) < 0.5
                fresh = rng.integers(0, workload.token_pool, size=workload.summary_words)
                words = np.where(keep, source, fresh[: len(source)])
                words = np.concatenate([words, fresh[len(source) :]])[: workload.summary_words]
                summary.append([pool[i] for i in words])
        docs.append({"id": f"{workload.name}-{d:04d}", "sentences": sentences, "summary": summary})
        copied.append(chosen)
    return Corpus(docs, copied)


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
