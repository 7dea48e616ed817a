import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnsum.corpus import Document
from rnnsum.evaluation import (
    EvaluationError,
    SelectionPolicy,
    evaluate_corpus,
    select,
)
from rnnsum.rouge import LengthLimit

PROB = SelectionPolicy("prob")
NO_LIMIT = LengthLimit("none")

# select ------------------------------------------------------------------------


def doc_with_counts(word_counts):
    return Document(
        "d", [[f"w{i}_{j}" for j in range(c)] for i, c in enumerate(word_counts)]
    )


def test_prob_policy_includes_overflowing_sentence():
    doc = doc_with_counts([3, 4, 2])
    assert select([0.2, 0.9, 0.6], doc, PROB, LengthLimit("words", 5)) == [1, 2]


def test_prob_policy_stops_after_overflow():
    doc = doc_with_counts([3, 4, 2])
    # highest-probability sentence alone exceeds the budget; nothing else enters
    assert select([0.2, 0.9, 0.6], doc, PROB, LengthLimit("words", 3)) == [1]


def test_prob_policy_no_limit_selects_everything():
    doc = doc_with_counts([2, 2, 2, 2])
    assert select([0.9, 0.1, 0.5, 0.2], doc, PROB, NO_LIMIT) == [0, 1, 2, 3]


def test_topk_in_document_order():
    doc = doc_with_counts([1, 1, 1, 1, 1])
    assert select([0.1, 0.9, 0.8, 0.7, 0.2], doc, SelectionPolicy("topk", 3), NO_LIMIT) == [1, 2, 3]


def test_topk_ties_prefer_earlier_sentence():
    doc = doc_with_counts([1, 1, 1])
    assert select([0.5, 0.5, 0.5], doc, SelectionPolicy("topk", 2), NO_LIMIT) == [0, 1]


def test_lead_three():
    doc = doc_with_counts([1, 1, 1, 1, 1])
    assert select(None, doc, SelectionPolicy("lead", 3), NO_LIMIT) == [0, 1, 2]


def test_lead_ignores_probabilities():
    doc = doc_with_counts([1, 1, 1, 1])
    lead = SelectionPolicy("lead", 2)
    probs = ([0.9, 0.1, 0.5, 0.7], [0.1, 0.9, 0.7, 0.5], None)
    picks = [select(p, doc, lead, NO_LIMIT) for p in probs]
    assert picks[0] == picks[1] == picks[2]


def test_select_length_mismatch():
    doc = doc_with_counts([1, 1])
    with pytest.raises(EvaluationError):
        select([0.5], doc, SelectionPolicy("lead", 1), NO_LIMIT)


def test_policy_validation_and_parse():
    with pytest.raises(ValueError):
        SelectionPolicy("topk", 0)
    with pytest.raises(ValueError):
        SelectionPolicy("lead", 0)
    with pytest.raises(ValueError):
        SelectionPolicy("prob", 5)
    for bad in ("magic", "prob:5", "topk:x", "topk:", "topk", "lead:x", "lead:"):
        with pytest.raises(ValueError, match=f"cannot parse selection policy '{bad}'"):
            SelectionPolicy.parse(bad)
    assert SelectionPolicy.parse("topk:3") == SelectionPolicy("topk", 3)
    assert SelectionPolicy.parse("lead:2") == SelectionPolicy("lead", 2)
    assert SelectionPolicy.parse("prob") == PROB
    assert PROB.describe(LengthLimit("bytes", 75)) == "prob[bytes:75]"
    assert SelectionPolicy("topk", 3).describe(LengthLimit("bytes", 75)) == "topk:3"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=8))
def test_select_output_sorted_and_unique(probs):
    doc = doc_with_counts([2] * len(probs))
    for policy in (SelectionPolicy("topk", 3), SelectionPolicy("lead", 2), PROB):
        out = select(probs, doc, policy, LengthLimit("words", 5))
        assert out == sorted(set(out))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_topk_monotone_in_raised_probability(probs, k):
    doc = doc_with_counts([1] * len(probs))
    topk = SelectionPolicy("topk", k)
    base = select(probs, doc, topk, NO_LIMIT)
    for idx in base:
        boosted = list(probs)
        boosted[idx] = 1.0
        assert idx in select(boosted, doc, topk, NO_LIMIT)


# evaluate_corpus -----------------------------------------------------------------


def perfect_lead_corpus():
    docs = []
    for d in range(3):
        sentences = [[f"a{d}", f"b{d}"], [f"c{d}"], [f"d{d}"], [f"x{d}"], [f"y{d}"]]
        docs.append(Document(f"doc{d}", sentences, summary=sentences[:3]))
    return docs


def test_lead3_on_perfect_lead_corpus():
    report = evaluate_corpus(
        None, perfect_lead_corpus(), SelectionPolicy("lead", 3), NO_LIMIT, "recall"
    )
    assert report["rouge1"] == 1.0
    assert report["rougeL"] == 1.0


def test_single_document_reduces_to_evaluate_summary():
    from rnnsum.rouge import evaluate_summary

    docs = perfect_lead_corpus()[:1]
    report = evaluate_corpus(None, docs, SelectionPolicy("lead", 2), NO_LIMIT, "f1")
    direct = evaluate_summary(docs[0].sentences[:2], docs[0].summary, NO_LIMIT)
    assert report["rouge1"] == pytest.approx(direct["rouge1"].f1)
    assert report["rouge2"] == pytest.approx(direct["rouge2"].f1)
    assert report["rougeL"] == pytest.approx(direct["rougeL"].f1)


def test_evaluate_corpus_missing_summaries_lists_ids():
    docs = [Document("nosum", [["a"]])]
    with pytest.raises(EvaluationError, match="nosum"):
        evaluate_corpus(None, docs, SelectionPolicy("lead", 1), NO_LIMIT)


def test_evaluate_corpus_needs_scorer_for_prob_policy():
    with pytest.raises(EvaluationError, match=r"policy topk:1 needs probabilities"):
        evaluate_corpus(None, perfect_lead_corpus(), SelectionPolicy("topk", 1), NO_LIMIT)


def test_evaluate_corpus_scorer_driven_selection():
    docs = perfect_lead_corpus()

    def scorer(doc):
        # rank the true-summary sentences highest
        return [0.9, 0.8, 0.7, 0.1, 0.2][: len(doc.sentences)]

    report = evaluate_corpus(docs=docs, scorer=scorer, policy=SelectionPolicy("topk", 3),
                             limit=NO_LIMIT, flavor="f1")
    assert report["rouge1"] == 1.0
    assert all(d["selected_indices"] == [0, 1, 2] for d in report["per_document"])

