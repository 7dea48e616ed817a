import json

import numpy as np
import pytest

from rnnsum.corpus import (
    UNK,
    CorpusConfig,
    CorpusError,
    Document,
    Vocabulary,
    build_vocab,
    encode,
    encode_summary,
    load_corpus,
    load_word_vectors,
    write_corpus,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_truncates_to_sentence_cap(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "d1", "sentences": [[f"w{i}"] for i in range(120)]}])
    docs, skipped = load_corpus(path, CorpusConfig(max_sentences=100))
    assert skipped == 0
    assert len(docs[0].sentences) == 100
    assert docs[0].sentences[0] == ["w0"]
    assert docs[0].sentences[-1] == ["w99"]


def test_below_cap_unchanged(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "d1", "sentences": [["a"], ["b"]]}])
    docs, _ = load_corpus(path, CorpusConfig())
    assert docs[0].sentences == [["a"], ["b"]]


def test_word_cap_truncates_each_sentence(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "d1", "sentences": [["a", "b", "c", "d"]]}])
    docs, _ = load_corpus(path, CorpusConfig(max_words_per_sentence=2))
    assert docs[0].sentences == [["a", "b"]]


def test_labels_truncated_in_lockstep(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [{"id": "d1", "sentences": [["a"], ["b"], ["c"]], "labels": [1, 0, 1]}],
    )
    docs, _ = load_corpus(path, CorpusConfig(max_sentences=2))
    assert docs[0].labels == [1, 0]


def test_missing_sentences_field_named(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "d1"}])
    with pytest.raises(CorpusError, match="'sentences'"):
        load_corpus(path, CorpusConfig())


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "d1", "sentences": [["a"]]}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path, CorpusConfig())


def test_empty_document_skipped_with_count(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "d1", "sentences": []},
            {"id": "d2", "sentences": [["ok"]]},
            {"id": "d3", "sentences": [[]]},
        ],
    )
    docs, skipped = load_corpus(path, CorpusConfig())
    assert [d.doc_id for d in docs] == ["d2"]
    assert skipped == 2


def test_duplicate_document_id_names_the_second_line(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "x", "sentences": [["a"]]},
            {"id": "y", "sentences": [["b"]]},
            {"id": "x", "sentences": [["c"]]},
        ],
    )
    with pytest.raises(CorpusError, match=r"line 3: duplicate document id 'x' \(first on line 1\)"):
        load_corpus(path, CorpusConfig())


def test_label_count_mismatch_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "d1", "sentences": [["a"], ["b"]], "labels": [1]}])
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path, CorpusConfig())


def test_corpus_roundtrip(tmp_path):
    docs = [
        Document("d1", [["a", "b"]], summary=[["a"]], labels=[1]),
        Document("d2", [["x"], ["y"]]),
    ]
    path = tmp_path / "out.jsonl"
    write_corpus(docs, path)
    loaded, skipped = load_corpus(path, CorpusConfig())
    assert skipped == 0
    assert [d.doc_id for d in loaded] == ["d1", "d2"]
    assert loaded[0].summary == [["a"]]
    assert loaded[0].labels == [1]


def test_document_invariants():
    with pytest.raises(ValueError):
        Document("d", [])
    with pytest.raises(ValueError):
        Document("d", [["a"], []])
    with pytest.raises(ValueError):
        Document("d", [["a"]], labels=[1, 0])
    with pytest.raises(ValueError):
        Document("d", [["a"]], labels=[2])


# vocabulary ------------------------------------------------------------------


def docs_with_counts():
    return [Document("d1", [["a", "a", "b"], ["a"]])]


def test_build_vocab_frequency_ranked():
    vocab = build_vocab(docs_with_counts(), cap=6)
    assert vocab.lookup("a") == 4
    assert vocab.lookup("b") == 5


def test_build_vocab_cap_pushes_rare_to_unk():
    vocab = build_vocab(docs_with_counts(), cap=5)
    assert vocab.lookup("a") == 4
    assert vocab.lookup("b") == UNK


def test_build_vocab_rejects_a_non_positive_cap():
    with pytest.raises(ValueError, match="vocab_cap must be positive"):
        build_vocab(docs_with_counts(), cap=0)


def test_build_vocab_lexicographic_ties():
    docs = [Document("d1", [["y", "x"]])]
    vocab = build_vocab(docs, cap=10)
    assert vocab.lookup("x") == 4
    assert vocab.lookup("y") == 5


def test_vocab_roundtrip_identity():
    vocab = build_vocab(docs_with_counts(), cap=10)
    for idx, tok in enumerate(vocab.index_to_token):
        if idx >= 4:
            assert vocab.lookup(tok) == idx


# encoding --------------------------------------------------------------------


def test_encode_direct_lookup():
    vocab = Vocabulary(["the", "cat"])
    doc = Document("d", [["the", "cat"]])
    assert encode(doc, vocab) == [[4, 5]]


def test_encode_oov_to_unk():
    vocab = Vocabulary(["the"])
    doc = Document("d", [["the", "dog"]])
    assert encode(doc, vocab) == [[4, UNK]]


def test_encode_degenerate_vocab():
    vocab = Vocabulary([])
    doc = Document("d", [["anything", "at", "all"]])
    assert encode(doc, vocab) == [[UNK, UNK, UNK]]


def test_encode_summary_flattens():
    vocab = Vocabulary(["a", "b"])
    doc = Document("d", [["a"]], summary=[["a", "b"], ["b"]])
    assert encode_summary(doc, vocab) == [4, 5, 5]
    with pytest.raises(ValueError):
        encode_summary(Document("d", [["a"]]), vocab)


# word vectors ----------------------------------------------------------------


def test_word_vectors_full_coverage(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    path = tmp_path / "vec.txt"
    path.write_text("cat 0.1 0.2\ndog 0.3 0.4\n", encoding="utf-8")
    matrix, covered = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
    assert covered == len(vocab) - 4
    np.testing.assert_allclose(matrix[vocab.lookup("cat")], [0.1, 0.2])
    np.testing.assert_allclose(matrix[vocab.lookup("dog")], [0.3, 0.4])


def test_word_vectors_empty_file_random_init(tmp_path):
    vocab = Vocabulary(["cat"])
    path = tmp_path / "vec.txt"
    path.write_text("", encoding="utf-8")
    matrix, covered = load_word_vectors(path, vocab, 3, np.random.default_rng(0))
    assert covered == 0
    assert matrix.shape == (5, 3)
    assert np.all(np.abs(matrix) <= 0.05)


def test_word_vectors_dim_mismatch_reports_line(tmp_path):
    vocab = Vocabulary(["cat"])
    path = tmp_path / "vec.txt"
    path.write_text("cat 0.1 0.2\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        load_word_vectors(path, vocab, 3, np.random.default_rng(0))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_word_vectors_non_finite_component_names_file_and_line(tmp_path, bad):
    vocab = Vocabulary(["a"])
    path = tmp_path / "vec.txt"
    path.write_text(f"b 0.1 0.2\na {bad} 1.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"vec\.txt: line 2: non-finite vector component for 'a'"):
        load_word_vectors(path, vocab, 2, np.random.default_rng(0))


def test_word_vectors_reject_a_vocabulary_token_on_two_lines(tmp_path):
    vocab = Vocabulary(["a"])
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 5 6\nb 7 8\na 3 4\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"vec\.txt: line 4: 'a' already has a vector on line 1"):
        load_word_vectors(path, vocab, 2, np.random.default_rng(0))


def test_word_vectors_header_tolerated(tmp_path):
    vocab = Vocabulary(["cat"])
    path = tmp_path / "vec.txt"
    path.write_text("1 2\ncat 0.5 0.6\n", encoding="utf-8")
    matrix, covered = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
    assert covered == 1
    np.testing.assert_allclose(matrix[4], [0.5, 0.6])


def test_word_vectors_deterministic_given_seed(tmp_path):
    vocab = Vocabulary(["cat", "dog"])
    path = tmp_path / "vec.txt"
    path.write_text("cat 0.1 0.2\n", encoding="utf-8")
    m1, _ = load_word_vectors(path, vocab, 2, np.random.default_rng(7))
    m2, _ = load_word_vectors(path, vocab, 2, np.random.default_rng(7))
    np.testing.assert_array_equal(m1, m2)
