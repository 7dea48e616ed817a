import json

import numpy as np
import pytest

from rnnsum import autodiff as ad
from rnnsum.cli import RunConfig, load_run_config, main
from rnnsum.corpus import Document, Vocabulary, write_corpus
from rnnsum.model import ModelConfig, init_params, save_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


def write_docs(path, docs):
    write_corpus(docs, path)
    return path


def oracle_example_docs():
    return [
        Document(
            "w",
            [["a", "b"], ["c", "d"], ["a", "b", "c"]],
            summary=[["a", "b", "c", "d"]],
        )
    ]


def zero_checkpoint(tmp_path, vocab_tokens=("a", "b", "c", "d"), **cfg_overrides):
    cfg = dict(
        vocab_size=len(vocab_tokens) + 4,
        embedding_dim=3,
        hidden_dim=4,
        position_embedding_dim=2,
        max_abs_positions=8,
        num_rel_segments=2,
    )
    cfg.update(cfg_overrides)
    config = ModelConfig(**cfg)
    store = ad.ParameterStore()
    init_params(config, store, np.random.default_rng(0))
    for _, node in store.items():
        node.value[...] = 0.0
    path = tmp_path / "zero_ckpt.json"
    save_checkpoint(path, store, config, Vocabulary(list(vocab_tokens)))
    return path


def random_checkpoint(tmp_path):
    """A checkpoint over tokens a-d with nonzero parameters, so probabilities differ."""
    cfg = ModelConfig(
        vocab_size=8, embedding_dim=3, hidden_dim=4, position_embedding_dim=2,
        max_abs_positions=8, num_rel_segments=2,
    )
    store = ad.ParameterStore()
    init_params(cfg, store, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for _, node in store.items():
        node.value[...] = rng.uniform(-0.5, 0.5, size=node.value.shape)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, Vocabulary(["a", "b", "c", "d"]))
    return path


# run config ---------------------------------------------------------------------


def test_run_config_roundtrip(tmp_path):
    config = RunConfig(seed=7, hidden_dim=32, mode="abstractive", limit="bytes:75")
    path = tmp_path / "c.cfg"
    path.write_text(config.to_text(), encoding="utf-8")
    assert load_run_config(path) == config


def test_run_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("no_such_knob = 3\n", encoding="utf-8")
    from rnnsum.cli import CliError

    with pytest.raises(CliError, match="no_such_knob"):
        load_run_config(path)


def test_run_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nseed = 5  # trailing\n", encoding="utf-8")
    assert load_run_config(path).seed == 5


# (command, flag, RunConfig field, value in the file, value on the command line)
FLAG_OVERRIDES = [
    ("summarize", "--seed", "seed", "1", "2"),
    ("train", "--mode", "mode", "abstractive", "extractive"),
    ("summarize", "--policy", "policy", "lead:1", "lead:2"),
    ("summarize", "--limit", "limit", "words:5", "bytes:9"),
    ("evaluate", "--flavor", "flavor", "f1", "recall"),
    ("train", "--batch-size", "batch_size", "3", "2"),
    ("train", "--max-epochs", "max_epochs", "3", "1"),
    ("train", "--patience", "patience", "4", "1"),
    ("make-labels", "--metric", "oracle_metric", "rouge2_f1", "rouge1_recall"),
    ("make-labels", "--max-selected", "oracle_max_selected", "3", "1"),
]


def _cli_run(tmp_path, command, *flags):
    """Run `command` with small-model settings; return the written run config's path."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    if command == "make-labels":
        argv = ["--input", write_docs(tmp_path / "in.jsonl", oracle_example_docs()),
                "--output", out / "labeled.jsonl"]
    else:
        corpus = labeled_corpus_file(tmp_path)
        argv = {
            "train": ["--train", corpus, "--valid", corpus, "--out", out],
            "summarize": ["--input", corpus, "--out", out],
            "evaluate": ["--input", corpus, "--out", out, "--baseline", "lead:1"],
        }[command]
    assert run(command, *argv, *flags) == 0
    return out / ("labeled.jsonl.run_config.cfg" if command == "make-labels" else "run_config.cfg")


@pytest.mark.parametrize(
    "command, flag, field, in_file, on_line", FLAG_OVERRIDES, ids=[o[1] for o in FLAG_OVERRIDES]
)
def test_a_flag_overrides_its_field_in_the_config_file(
    tmp_path, command, flag, field, in_file, on_line
):
    settings = {
        "embedding_dim": "3", "hidden_dim": "4", "position_embedding_dim": "2",
        "max_epochs": "1", "policy": "lead:1", field: in_file,
    }
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    written = _cli_run(tmp_path, command, "--config", cfg, flag, on_line)
    assert str(getattr(load_run_config(written), field)) == on_line
    unflagged = _cli_run(tmp_path / "file-only", command, "--config", cfg)
    assert str(getattr(load_run_config(unflagged), field)) == in_file


def test_evaluate_metric_flag_is_not_the_oracle_metric(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("oracle_metric = rouge2_f1\n", encoding="utf-8")
    written = _cli_run(tmp_path, "evaluate", "--config", cfg, "--metric", "r1")
    assert load_run_config(written).oracle_metric == "rouge2_f1"


# make-labels ---------------------------------------------------------------------


def test_make_labels_worked_example(tmp_path):
    inp = write_docs(tmp_path / "in.jsonl", oracle_example_docs())
    out = tmp_path / "out.jsonl"
    assert run("make-labels", "--input", inp, "--output", out) == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["labels"] == [0, 1, 1]
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text())
    assert stats["documents"] == 1
    assert (tmp_path / "out.jsonl.run_config.cfg").exists()


def test_make_labels_refuses_overwrite(tmp_path):
    docs = oracle_example_docs()
    docs[0] = Document(docs[0].doc_id, docs[0].sentences, docs[0].summary, [1, 0, 0])
    inp = write_docs(tmp_path / "in.jsonl", docs)
    out = tmp_path / "out.jsonl"
    assert run("make-labels", "--input", inp, "--output", out) == 1
    assert not out.exists()
    assert run("make-labels", "--input", inp, "--output", out, "--overwrite") == 0
    assert json.loads(out.read_text().splitlines()[0])["labels"] == [0, 1, 1]


def test_make_labels_empty_input(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("make-labels", "--input", inp, "--output", out) == 0
    assert out.read_text() == ""
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text())
    assert stats["documents"] == 0


def test_make_labels_parse_error_nonzero_exit(tmp_path):
    inp = tmp_path / "in.jsonl"
    inp.write_text("{broken\n", encoding="utf-8")
    assert run("make-labels", "--input", inp, "--output", tmp_path / "o.jsonl") == 1


# train ---------------------------------------------------------------------------


def labeled_corpus_file(tmp_path, n_docs=4):
    rng = np.random.default_rng(0)
    tokens = [f"t{i}" for i in range(12)]
    docs = []
    for d in range(n_docs):
        sents = [
            [tokens[int(i)] for i in rng.choice(12, 3, replace=False)] for _ in range(4)
        ]
        pos = int(rng.integers(0, 4))
        labels = [1 if i == pos else 0 for i in range(4)]
        docs.append(Document(f"d{d}", sents, summary=[sents[pos]], labels=labels))
    return write_docs(tmp_path / "train.jsonl", docs)


def test_train_writes_outputs_and_is_deterministic(tmp_path):
    corpus = labeled_corpus_file(tmp_path)
    common = [
        "train", "--train", corpus, "--valid", corpus,
        "--max-epochs", 2, "--batch-size", 2, "--seed", 11,
    ]
    assert run(*common, "--out", tmp_path / "r1") == 0
    assert run(*common, "--out", tmp_path / "r2") == 0
    r1 = (tmp_path / "r1/training_report.json").read_bytes()
    r2 = (tmp_path / "r2/training_report.json").read_bytes()
    assert r1 == r2
    assert (tmp_path / "r1/checkpoint_best.json").read_bytes() == (
        tmp_path / "r2/checkpoint_best.json"
    ).read_bytes()


def test_train_with_pretrained_embeddings(tmp_path, capsys):
    corpus = labeled_corpus_file(tmp_path)
    vectors = tmp_path / "vec.txt"
    dim = 4
    lines = [f"t{i} " + " ".join(str(0.01 * (i + j)) for j in range(dim)) for i in range(12)]
    vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("embedding_dim = 4\nhidden_dim = 4\nposition_embedding_dim = 2\n")
    out = tmp_path / "r"
    assert (
        run(
            "train", "--config", cfg, "--train", corpus, "--valid", corpus,
            "--out", out, "--max-epochs", 1, "--seed", 3,
        )
        == 0
    )
    # now with the vector file: coverage message appears, run still works
    out2 = tmp_path / "r2"
    assert (
        run(
            "train", "--config", cfg, "--train", corpus, "--valid", corpus,
            "--out", out2, "--max-epochs", 1, "--seed", 3, "--embeddings", vectors,
        )
        == 0
    )
    assert "loaded vectors for 12/12" in capsys.readouterr().out
    # pre-trained init changes the starting point, so the reports differ
    assert (out / "training_report.json").read_bytes() != (
        out2 / "training_report.json"
    ).read_bytes()


def test_train_mode_mismatch_fails_fast(tmp_path):
    docs = [Document("u", [["a"], ["b"]])]  # no labels, no summary
    corpus = write_docs(tmp_path / "train.jsonl", docs)
    out = tmp_path / "r"
    assert (
        run("train", "--train", corpus, "--valid", corpus, "--out", out, "--max-epochs", 1)
        == 1
    )
    assert not (out / "training_report.json").exists()
    assert (
        run(
            "train", "--train", corpus, "--valid", corpus, "--out", out,
            "--mode", "abstractive", "--max-epochs", 1,
        )
        == 1
    )



def test_train_error_in_the_validation_corpus_names_that_file(tmp_path, capsys):
    corpus = labeled_corpus_file(tmp_path)
    valid = tmp_path / "v.jsonl"
    valid.write_text(corpus.read_text().splitlines()[0] + "\n{broken\n", encoding="utf-8")
    assert run("train", "--train", corpus, "--valid", valid, "--out", tmp_path / "r") == 1
    assert f"error: {valid}: line 2: invalid JSON" in capsys.readouterr().err


def test_train_rejects_zero_epochs(tmp_path, capsys):
    corpus = labeled_corpus_file(tmp_path)
    out = tmp_path / "r"
    assert (
        run("train", "--train", corpus, "--valid", corpus, "--out", out, "--max-epochs", 0)
        == 1
    )
    assert "error: max_epochs must be >= 1" in capsys.readouterr().err
    assert not list(out.glob("checkpoint_*.json"))
    assert not (out / "training_report.json").exists()


@pytest.mark.parametrize("field", ["decoder_hidden_dim", "decoder_ff_dim"])
def test_train_rejects_a_non_positive_decoder_dim(tmp_path, capsys, field):
    corpus = labeled_corpus_file(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"embedding_dim = 3\nhidden_dim = 4\n{field} = -3\n", encoding="utf-8")
    out = tmp_path / "r"
    assert (
        run("train", "--config", cfg, "--train", corpus, "--valid", corpus, "--out", out,
            "--mode", "abstractive")
        == 1
    )
    assert f"error: {field} must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "summarize", "evaluate"])
def test_a_failing_command_leaves_no_out_directory(tmp_path, command):
    corpus = labeled_corpus_file(tmp_path)
    out = tmp_path / "out"
    argv = {
        "train": ["--train", corpus, "--valid", corpus, "--max-epochs", 0],
        "summarize": ["--input", corpus, "--policy", "topk:1"],
        "evaluate": ["--input", corpus, "--checkpoint", tmp_path / "missing.json"],
    }[command]
    assert run(command, *argv, "--out", out) == 1
    assert not out.exists()


# summarize -------------------------------------------------------------------------


def test_summarize_lead_bypasses_checkpoint(tmp_path):
    corpus = write_docs(
        tmp_path / "c.jsonl",
        [Document("d", [["a"], ["b"], ["c"], ["d"]])],
    )
    out = tmp_path / "sums"
    assert run("summarize", "--input", corpus, "--out", out, "--policy", "lead:2") == 0
    record = json.loads((out / "summaries.jsonl").read_text().splitlines()[0])
    assert record["selected_indices"] == [0, 1]
    assert record["summary_sentences"] == [["a"], ["b"]]
    assert record["probabilities"] is None


def test_summarize_zero_checkpoint_emits_half_probabilities(tmp_path):
    ckpt = zero_checkpoint(tmp_path)
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a", "b"], ["c"]])])
    out = tmp_path / "sums"
    assert (
        run(
            "summarize", "--checkpoint", ckpt, "--input", corpus, "--out", out,
            "--policy", "topk:1",
        )
        == 0
    )
    record = json.loads((out / "summaries.jsonl").read_text().splitlines()[0])
    assert record["probabilities"] == [0.5, 0.5]
    assert record["selected_indices"] == [0]  # tie -> earlier sentence


def test_summarize_prob_policy_needs_checkpoint(tmp_path):
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a"]])])
    assert (
        run("summarize", "--input", corpus, "--out", tmp_path / "s", "--policy", "topk:1")
        == 1
    )


# evaluate -------------------------------------------------------------------------


def perfect_lead_file(tmp_path):
    docs = []
    for d in range(3):
        sentences = [[f"a{d}"], [f"b{d}"], [f"c{d}"], [f"x{d}"], [f"y{d}"]]
        docs.append(Document(f"doc{d}", sentences, summary=sentences[:3]))
    return write_docs(tmp_path / "c.jsonl", docs)


def test_evaluate_lead3_perfect(tmp_path):
    corpus = perfect_lead_file(tmp_path)
    out = tmp_path / "eval"
    assert (
        run(
            "evaluate", "--baseline", "lead:3", "--input", corpus, "--out", out,
            "--flavor", "f1",
        )
        == 0
    )
    report = json.loads((out / "evaluation_report.json").read_text())
    assert report["rouge1"] == 1.0
    assert report["rougeL"] == 1.0
    assert report["flavor"] == "f1"


def test_evaluate_same_invocation_identical(tmp_path):
    corpus = perfect_lead_file(tmp_path)
    args = ["evaluate", "--baseline", "lead:2", "--input", corpus, "--flavor", "recall"]
    assert run(*args, "--out", tmp_path / "e1") == 0
    assert run(*args, "--out", tmp_path / "e2") == 0
    assert (tmp_path / "e1/evaluation_report.json").read_bytes() == (
        tmp_path / "e2/evaluation_report.json"
    ).read_bytes()


def test_evaluate_requires_model_or_baseline(tmp_path):
    corpus = perfect_lead_file(tmp_path)
    assert run("evaluate", "--input", corpus, "--out", tmp_path / "e") == 1


def test_evaluate_lead_policy_reads_no_checkpoint(tmp_path):
    corpus = perfect_lead_file(tmp_path)
    out = tmp_path / "eval"
    assert (
        run(
            "evaluate", "--checkpoint", tmp_path / "missing.json", "--policy", "lead:3",
            "--input", corpus, "--out", out,
        )
        == 0
    )
    assert json.loads((out / "evaluation_report.json").read_text())["rouge1"] == 1.0


def test_evaluate_with_zero_checkpoint_verbose(tmp_path):
    ckpt = zero_checkpoint(tmp_path)
    corpus = write_docs(
        tmp_path / "c.jsonl",
        [Document("d", [["a", "b"], ["c"]], summary=[["a", "b"]])],
    )
    out = tmp_path / "eval"
    assert (
        run(
            "evaluate", "--checkpoint", ckpt, "--input", corpus, "--out", out,
            "--policy", "topk:1", "--verbose",
        )
        == 0
    )
    report = json.loads((out / "evaluation_report.json").read_text())
    assert report["per_document"][0]["id"] == "d"
    assert report["rouge1"] == 1.0


# inspect -------------------------------------------------------------------------


def test_inspect_zero_params(tmp_path):
    ckpt = zero_checkpoint(tmp_path)
    corpus = write_docs(
        tmp_path / "c.jsonl", [Document("d", [["a", "b"], ["c"], ["d"]])]
    )
    out = tmp_path / "insp"
    assert run("inspect", "--checkpoint", ckpt, "--input", corpus, "--out", out) == 0
    payload = json.loads((out / "inspect.json").read_text())
    assert payload["id"] == "d"
    for row in payload["sentences"]:
        assert row["probability"] == 0.5
        for factor in ("content", "salience", "novelty", "abs_pos", "rel_pos", "bias"):
            assert row[factor] == 0.0
            assert row["normalized"][factor] == 0.0


def test_inspect_reassembles_probability(tmp_path):
    ckpt = random_checkpoint(tmp_path)
    corpus = write_docs(
        tmp_path / "c.jsonl", [Document("d", [["a", "b"], ["c", "d"], ["b"]])]
    )
    out = tmp_path / "insp"
    assert run("inspect", "--checkpoint", ckpt, "--input", corpus, "--out", out) == 0
    payload = json.loads((out / "inspect.json").read_text())
    for row in payload["sentences"]:
        z = (
            row["content"] + row["salience"] - row["novelty"]
            + row["abs_pos"] + row["rel_pos"] + row["bias"]
        )
        assert abs(1.0 / (1.0 + np.exp(-z)) - row["probability"]) < 1e-9


def test_inspect_unknown_id(tmp_path):
    ckpt = zero_checkpoint(tmp_path)
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a"]])])
    assert (
        run(
            "inspect", "--checkpoint", ckpt, "--input", corpus,
            "--id", "missing", "--out", tmp_path / "i",
        )
        == 1
    )


def test_checkpoint_version_mismatch_exit_code(tmp_path):
    ckpt = zero_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload["version"] = 42
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a"]])])
    assert (
        run("summarize", "--checkpoint", bad, "--input", corpus,
            "--out", tmp_path / "s", "--policy", "topk:1")
        == 1
    )


def test_summarize_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    ckpt = zero_checkpoint(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload["params"]["score.w_content"]["data"][1] = float("nan")
    ckpt.write_text(json.dumps(payload))
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a"], ["b"]])])
    out = tmp_path / "s"
    assert (
        run("summarize", "--checkpoint", ckpt, "--input", corpus, "--out", out,
            "--policy", "topk:1")
        == 1
    )
    assert "'score.w_content' has a non-finite value" in capsys.readouterr().err
    assert not (out / "summaries.jsonl").exists()


def _edit_payload(change):
    def apply(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return apply


# name -> (checkpoint text -> corrupted text, what the error must also say)
CORRUPTIONS = {
    "truncated": (lambda text: text[: len(text) // 2], "not valid JSON"),
    # bit 5 of the first "[" turns it into "{"
    "flipped-bit": (lambda text: text.replace("[", "{", 1), "not valid JSON"),
    "not-an-object": (lambda text: "[]\n", "expected a JSON object"),
    "data-without-shape": (
        _edit_payload(lambda p: p["params"].update({"score.b": {"data": 5}})),
        "'score.b'",
    ),
    "invalid-config": (
        _edit_payload(lambda p: p["config"].update(hidden_dim=0)),
        "hidden_dim must be positive",
    ),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_summarize_names_a_corrupt_checkpoint(tmp_path, capsys, corruption):
    corrupt, detail = CORRUPTIONS[corruption]
    ckpt = zero_checkpoint(tmp_path)
    ckpt.write_text(corrupt(ckpt.read_text()))
    corpus = write_docs(tmp_path / "c.jsonl", [Document("d", [["a"], ["b"]])])
    out = tmp_path / "s"
    assert (
        run("summarize", "--checkpoint", ckpt, "--input", corpus, "--out", out,
            "--policy", "topk:1")
        == 1
    )
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ")
    assert detail in err
    assert not out.exists()


# one serving path -------------------------------------------------------------


@pytest.mark.parametrize("policy", ["prob", "topk:2", "lead:2"])
@pytest.mark.parametrize("limit", ["none", "bytes:9", "words:4"])
def test_summarize_evaluate_and_inspect_agree(tmp_path, policy, limit):
    ckpt = random_checkpoint(tmp_path)
    docs = [
        Document("x", [["a", "b", "c"], ["d"], ["b", "a"], ["c", "c", "d"]], summary=[["a", "d"]]),
        Document("y", [["d", "d"], ["a", "b", "c", "d"], ["c"]], summary=[["b", "c"]]),
    ]
    corpus = write_docs(tmp_path / "c.jsonl", docs)
    flags = ["--checkpoint", ckpt, "--input", corpus, "--policy", policy, "--limit", limit]
    assert run("summarize", *flags, "--out", tmp_path / "s") == 0
    assert run("evaluate", *flags, "--out", tmp_path / "e", "--verbose") == 0
    lines = (tmp_path / "s/summaries.jsonl").read_text().splitlines()
    summaries = [json.loads(line) for line in lines]
    report = json.loads((tmp_path / "e/evaluation_report.json").read_text())
    assert [d["id"] for d in report["per_document"]] == [s["id"] for s in summaries] == ["x", "y"]
    for summary, scored in zip(summaries, report["per_document"]):
        assert scored["selected_indices"] == summary["selected_indices"]
        out = tmp_path / f"i-{summary['id']}"
        inspect = ["inspect", "--checkpoint", ckpt, "--input", corpus, "--id", summary["id"]]
        assert run(*inspect, "--out", out) == 0
        rows = json.loads((out / "inspect.json").read_text())["sentences"]
        probabilities = [row["probability"] for row in rows]
        if policy == "lead:2":
            assert summary["probabilities"] is None
        else:
            assert probabilities == summary["probabilities"]
