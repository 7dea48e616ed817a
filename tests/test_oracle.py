import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnsum.corpus import Document
from rnnsum.oracle import (
    GreedyTrace,
    LabelStats,
    OracleConfig,
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
    assert greedy_trace(worked_doc(), OracleConfig()).labels == [0, 1, 1]


def test_worked_example_step_scores():
    trace = greedy_trace(worked_doc(), OracleConfig())
    assert trace.picked == [2, 1]
    assert trace.scores[0] == pytest.approx(0.857142857, abs=1e-6)
    assert trace.scores[1] == pytest.approx(0.888888889, abs=1e-6)


def test_perfect_single_sentence():
    doc = Document(
        "p",
        [["x", "y"], ["q", "r"], ["s", "t"]],
        summary=[["x", "y"]],
    )
    assert greedy_trace(doc, OracleConfig()).labels == [1, 0, 0]


def test_disjoint_sentences_all_zero():
    doc = Document("z", [["a"], ["b"]], summary=[["q", "r"]])
    assert greedy_trace(doc, OracleConfig()).labels == [0, 0]


def test_missing_summary_rejected():
    with pytest.raises(OracleError):
        greedy_trace(Document("m", [["a"]]), OracleConfig())


def test_max_selected_caps_selection():
    doc = Document(
        "c",
        [["a"], ["b"], ["c"]],
        summary=[["a", "b", "c"]],
    )
    labels = greedy_trace(doc, OracleConfig(max_selected=2)).labels
    assert sum(labels) == 2


def test_metric_validation():
    with pytest.raises(ValueError):
        OracleConfig(metric="bleu")
    with pytest.raises(ValueError):
        OracleConfig(max_selected=0)


# corpus labeling ---------------------------------------------------------------


def test_label_corpus_preserves_order_and_stats():
    docs = [
        worked_doc(),
        Document("p", [["x"], ["q"]], summary=[["x"]]),
    ]
    labeled, stats = label_corpus(docs, OracleConfig())
    assert [d.doc_id for d in labeled] == ["w", "p"]
    assert labeled[0].labels == [0, 1, 1]
    assert labeled[1].labels == [1, 0]
    assert stats.documents == 2
    assert stats.mean_selected == pytest.approx(1.5)
    assert stats.mean_score == pytest.approx((0.888888889 + 1.0) / 2, abs=1e-6)
    assert docs[0].labels is None  # inputs untouched


def test_label_corpus_empty():
    labeled, stats = label_corpus([], OracleConfig())
    assert labeled == []
    assert stats == LabelStats(0, 0.0, 0.0)


def test_label_corpus_missing_summary_names_ids():
    docs = [Document("ok", [["a"]], summary=[["a"]]), Document("bad", [["b"]])]
    with pytest.raises(OracleError, match="bad"):
        label_corpus(docs, OracleConfig())


# properties --------------------------------------------------------------------

sentence = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5)
doc_sentences = st.lists(sentence, min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(doc_sentences, sentence)
def test_greedy_matches_brute_force_scan(sentences, summary):
    doc = Document("h", sentences, summary=[summary])
    trace = greedy_trace(doc, OracleConfig())
    expected = brute_greedy_steps(sentences, [summary])
    assert trace.picked == [i for i, _ in expected]
    for got, (_, want) in zip(trace.scores, expected):
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(doc_sentences, sentence)
def test_step_scores_non_decreasing(sentences, summary):
    trace = greedy_trace(Document("h", sentences, summary=[summary]), OracleConfig())
    assert all(b >= a for a, b in zip(trace.scores, trace.scores[1:]))


@settings(max_examples=150, deadline=None)
@given(doc_sentences, sentence, st.integers(min_value=1, max_value=3))
def test_selected_count_respects_cap(sentences, summary, cap):
    doc = Document("h", sentences, summary=[summary])
    labels = greedy_trace(doc, OracleConfig(max_selected=cap)).labels
    assert sum(labels) <= cap


@settings(max_examples=100, deadline=None)
@given(doc_sentences, sentence)
def test_labels_mark_exactly_the_picked_sentences(sentences, summary):
    trace = greedy_trace(Document("h", sentences, summary=[summary]), OracleConfig())
    assert sorted(trace.picked) == [i for i, y in enumerate(trace.labels) if y == 1]
