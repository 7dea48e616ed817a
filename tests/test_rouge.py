from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnsum.rouge import LengthLimit, evaluate_summary, rouge_l, rouge_n, truncate

# independent oracles ---------------------------------------------------------


def brute_ngram_overlap(cand, ref, n):
    """Clipped n-gram match count via explicit enumeration."""
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    match = 0
    pool = list(ref_grams)
    for gram in cand_grams:
        if gram in pool:
            pool.remove(gram)
            match += 1
    return match, len(cand_grams), len(ref_grams)


def brute_lcs(a, b):
    """Longest common subsequence length by exhaustive subsequence enumeration."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    for length in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), length):
            sub = [short[i] for i in idxs]
            it = iter(long_)
            if all(tok in it for tok in sub):
                return length
    return 0


# truncation ------------------------------------------------------------------


def test_truncate_words_prefix():
    assert truncate([["the", "cat"]], LengthLimit("words", 1)) == ["the"]


def test_truncate_bytes_exact_fit():
    assert truncate([["abc", "de"]], LengthLimit("bytes", 6)) == ["abc", "de"]


def test_truncate_bytes_cuts_last_whole_token():
    assert truncate([["abc", "de"]], LengthLimit("bytes", 5)) == ["abc"]


def test_truncate_none_flattens():
    assert truncate([["a", "b"], ["c"]], LengthLimit("none")) == ["a", "b", "c"]


def test_truncate_bytes_counts_utf8():
    # "é" is 2 bytes in UTF-8, so "é é" spends 5 bytes
    assert truncate([["é", "é"]], LengthLimit("bytes", 4)) == ["é"]
    assert truncate([["é", "é"]], LengthLimit("bytes", 5)) == ["é", "é"]


def test_limit_parse_roundtrip():
    for text in ("none", "bytes:75", "words:275"):
        assert str(LengthLimit.parse(text)) == text
    for bad in ("chars:10", "bytes:x", "bytes:", "words:x", "words:", "bytes"):
        with pytest.raises(ValueError, match=f"cannot parse length limit '{bad}'"):
            LengthLimit.parse(bad)
    with pytest.raises(ValueError):
        LengthLimit("bytes", 0)


# rouge-n ---------------------------------------------------------------------

REF = ["the", "cat", "sat", "on", "the", "mat"]


def test_rouge1_hand_counts():
    got = rouge_n(["the", "cat", "the"], REF, 1)
    assert got.recall == pytest.approx(0.5)
    assert got.precision == pytest.approx(1.0)
    assert got.f1 == pytest.approx(2 / 3, abs=1e-4)


def test_rouge2_hand_counts():
    got = rouge_n(["the", "cat", "sat"], REF, 2)
    assert got.recall == pytest.approx(0.4)


def test_rouge_identity():
    got = rouge_n(REF, REF, 1)
    assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)


def test_rouge_empty_candidate_is_zero():
    got = rouge_n([], REF, 1)
    assert (got.recall, got.precision, got.f1) == (0.0, 0.0, 0.0)


# rouge-l ---------------------------------------------------------------------


def test_rouge_l_hand_table():
    got = rouge_l(["cat", "sat", "mat"], REF)
    assert got.recall == pytest.approx(0.5)


def test_rouge_l_skips():
    got = rouge_l(["a", "b", "c", "d", "e"], ["a", "c", "e"])
    assert got.recall == pytest.approx(1.0)  # LCS length 3 of reference length 3


def test_rouge_l_disjoint():
    got = rouge_l(["x", "y"], ["a", "b"])
    assert (got.recall, got.precision, got.f1) == (0.0, 0.0, 0.0)


# evaluate_summary ------------------------------------------------------------


def test_evaluate_identity_all_ones():
    sents = [["a", "b"], ["c", "d"]]
    scores = evaluate_summary(sents, sents, LengthLimit("none"))
    for name in ("rouge1", "rouge2", "rougeL"):
        assert scores[name].f1 == 1.0


def test_evaluate_empty_candidate_all_zeros():
    scores = evaluate_summary([], [["a", "b"]], LengthLimit("none"))
    for name in ("rouge1", "rouge2", "rougeL"):
        assert scores[name].f1 == 0.0


def test_evaluate_empty_reference_rejected():
    with pytest.raises(ValueError):
        evaluate_summary([["a"]], [], LengthLimit("none"))


def test_evaluate_composes_truncation():
    # truncated candidate ["the","cat"] vs REF: unigram match 2 -> N.B. exact
    # fractions: recall 2/6, precision 2/2
    scores = evaluate_summary([["the", "cat", "zzz"]], [REF], LengthLimit("words", 2))
    assert scores["rouge1"].recall == pytest.approx(float(Fraction(2, 6)))
    assert scores["rouge1"].precision == pytest.approx(1.0)


# properties ------------------------------------------------------------------

tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_symmetry_recall_precision(x, y):
    for n in (1, 2):
        assert rouge_n(x, y, n).recall == pytest.approx(rouge_n(y, x, n).precision)


@settings(max_examples=200, deadline=None)
@given(tokens, st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6))
def test_appending_reference_tokens_never_decreases_recall(cand, ref):
    base = rouge_n(cand, ref, 1).recall
    extended = rouge_n(cand + [ref[0]], ref, 1).recall
    assert extended >= base - 1e-12


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_rouge_l_recall_bounded_by_rouge_1(x, y):
    assert rouge_l(x, y).recall <= rouge_n(x, y, 1).recall + 1e-12


@settings(max_examples=300, deadline=None)
@given(tokens, tokens)
def test_rouge_l_matches_exhaustive_enumeration(x, y):
    expected = brute_lcs(x, y)
    got = rouge_l(x, y)
    if y:
        assert got.recall == pytest.approx(expected / len(y))
    if x:
        assert got.precision == pytest.approx(expected / len(x))


@settings(max_examples=300, deadline=None)
@given(tokens, tokens, st.sampled_from([1, 2]))
def test_rouge_n_matches_brute_force(x, y, n):
    match, cand_total, ref_total = brute_ngram_overlap(x, y, n)
    got = rouge_n(x, y, n)
    assert got.recall == pytest.approx(match / ref_total if ref_total else 0.0)
    assert got.precision == pytest.approx(match / cand_total if cand_total else 0.0)
