import pytest
import reference_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnnsum import oracle
from rnnsum.corpus import Document
from rnnsum.oracle import (
    ORACLE_METRICS,
    GreedyTrace,
    LabelStats,
    OracleError,
    greedy_trace,
    label_corpus,
)

# independent step-by-step oracle ---------------------------------------------


def brute_f1(cand, ref):
    """ROUGE-1 F1 from scratch: clipped unigram overlap via list removal."""
    match = 0
    pool = list(ref)
    for tok in cand:
        if tok in pool:
            pool.remove(tok)
            match += 1
    if not cand or not ref:
        return 0.0
    p = match / len(cand)
    r = match / len(ref)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def brute_greedy_steps(sentences, reference):
    """Replay greedy selection with an independent scorer; yields (idx, score)."""
    ref = [t for s in reference for t in s]
    selected = set()
    best = 0.0
    steps = []
    while True:
        choice, choice_score = None, best
        for i in range(len(sentences)):
            if i in selected:
                continue
            cand = [t for j in sorted(selected | {i}) for t in sentences[j]]
            score = brute_f1(cand, ref)
            if score > choice_score:
                choice, choice_score = i, score
        if choice is None:
            return steps
        selected.add(choice)
        best = choice_score
        steps.append((choice, best))


# worked example ---------------------------------------------------------------


def worked_doc():
    return Document(
        "w",
        [["a", "b"], ["c", "d"], ["a", "b", "c"]],
        summary=[["a", "b", "c", "d"]],
    )


def test_worked_example_labels():
    assert greedy_trace(worked_doc(), "rouge1_f1").labels == [0, 1, 1]


def test_worked_example_step_scores():
    trace = greedy_trace(worked_doc(), "rouge1_f1")
    assert trace.picked == [2, 1]
    assert trace.scores[0] == pytest.approx(0.857142857, abs=1e-6)
    assert trace.scores[1] == pytest.approx(0.888888889, abs=1e-6)


def test_perfect_single_sentence():
    doc = Document(
        "p",
        [["x", "y"], ["q", "r"], ["s", "t"]],
        summary=[["x", "y"]],
    )
    assert greedy_trace(doc, "rouge1_f1").labels == [1, 0, 0]


def test_disjoint_sentences_all_zero():
    doc = Document("z", [["a"], ["b"]], summary=[["q", "r"]])
    assert greedy_trace(doc, "rouge1_f1").labels == [0, 0]


def test_missing_summary_rejected():
    with pytest.raises(OracleError):
        greedy_trace(Document("m", [["a"]]), "rouge1_f1")


def test_metric_validation():
    # checked before any document: this one has no summary, which would also fail
    with pytest.raises(ValueError, match="unknown oracle metric 'bleu'"):
        label_corpus([Document("m", [["a"]])], "bleu")


# corpus labeling ---------------------------------------------------------------


def test_label_corpus_preserves_order_and_stats():
    docs = [
        worked_doc(),
        Document("p", [["x"], ["q"]], summary=[["x"]]),
    ]
    labeled, stats = label_corpus(docs, "rouge1_f1")
    assert [d.doc_id for d in labeled] == ["w", "p"]
    assert labeled[0].labels == [0, 1, 1]
    assert labeled[1].labels == [1, 0]
    assert stats.documents == 2
    assert stats.mean_selected == pytest.approx(1.5)
    assert stats.mean_score == pytest.approx((0.888888889 + 1.0) / 2, abs=1e-6)
    assert docs[0].labels is None  # inputs untouched


def test_label_corpus_empty():
    labeled, stats = label_corpus([], "rouge1_f1")
    assert labeled == []
    assert stats == LabelStats(0, 0.0, 0.0)


def test_label_corpus_missing_summary_names_ids():
    docs = [Document("ok", [["a"]], summary=[["a"]]), Document("bad", [["b"]])]
    with pytest.raises(OracleError, match="bad"):
        label_corpus(docs, "rouge1_f1")


# properties --------------------------------------------------------------------

sentence = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
doc_sentences = st.lists(sentence, min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(doc_sentences, sentence)
def test_greedy_matches_brute_force_scan(sentences, summary):
    doc = Document("h", sentences, summary=[summary])
    trace = greedy_trace(doc, "rouge1_f1")
    expected = brute_greedy_steps(sentences, [summary])
    assert trace.picked == [i for i, _ in expected]
    for got, (_, want) in zip(trace.scores, expected):
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(doc_sentences, sentence)
def test_step_scores_non_decreasing(sentences, summary):
    trace = greedy_trace(Document("h", sentences, summary=[summary]), "rouge1_f1")
    assert all(b >= a for a, b in zip(trace.scores, trace.scores[1:]))


@settings(max_examples=100, deadline=None)
@given(doc_sentences, sentence)
def test_labels_mark_exactly_the_picked_sentences(sentences, summary):
    trace = greedy_trace(Document("h", sentences, summary=[summary]), "rouge1_f1")
    assert sorted(trace.picked) == [i for i, y in enumerate(trace.labels) if y == 1]


@settings(max_examples=150, deadline=None)
@given(doc_sentences, st.lists(sentence, min_size=1, max_size=2))
# repeated tokens within and across sentences
@example([["a", "a", "b"], ["a", "b", "a"], ["b", "b"]], [["a", "b", "a", "a"]])
# one-token sentences, and a one-token reference, which has no bigram
@example([["a"], ["b"], ["a"], ["c"]], [["a"]])
@example([["a"], ["b"], ["c"]], [["a", "b"], ["c"]])
# the bigram ("b", "c") exists only across selected sentences 0 and 2
@example([["a", "b"], ["d"], ["c", "d"]], [["a", "b", "c", "d"]])
def test_greedy_trace_equals_the_token_level_oracle(sentences, summary):
    doc = Document("h", sentences, summary=summary)
    for metric in ORACLE_METRICS:
        want = reference_oracle.greedy_trace(sentences, summary, metric)
        assert greedy_trace(doc, metric) == want, metric


@pytest.mark.parametrize("metric", ORACLE_METRICS)
def test_one_rouge_n_call_per_candidate_and_n(monkeypatch, metric):
    """Each of the m picks and the final scan that finds no improvement
    scores every still-unselected sentence, once per n the metric reads."""
    original = oracle.rouge_n
    calls = []

    def counting(candidate, reference):
        calls.append(candidate)
        return original(candidate, reference)

    monkeypatch.setattr(oracle, "rouge_n", counting)
    doc = Document(
        "c",
        [["a", "b"], ["c", "d"], ["a", "b", "c"], ["x"], ["d", "a"], ["b", "c", "d"]],
        summary=[["a", "b", "c", "d"], ["d", "a"]],
    )
    trace = greedy_trace(doc, metric)
    n, m = len(doc.sentences), sum(trace.labels)
    per_score = 2 if metric == "mean_r1_r2_f1" else 1
    assert m >= 1
    assert len(calls) == per_score * sum(n - k for k in range(m + 1))
