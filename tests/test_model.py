import dataclasses
import errno
import json

import numpy as np
import pytest
from reference_tape import reassembled

from rnnsum import autodiff as ad
from rnnsum.corpus import Vocabulary
from rnnsum.model import (
    FACTORS,
    CheckpointError,
    ModelConfig,
    encode_document,
    forward,
    gate_inputs,
    gru_step,
    init_params,
    load_checkpoint,
    parameter_shapes,
    rel_segment,
    save_checkpoint,
    score_sentences,
    wire_params,
)
from rnnsum.training import extractive_loss

NOVELTY = FACTORS.index("novelty")


def toy_config(**overrides):
    base = dict(
        vocab_size=8,
        embedding_dim=3,
        hidden_dim=4,
        position_embedding_dim=2,
        max_abs_positions=6,
        num_rel_segments=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_params(config, seed=0, zero=False):
    store = ad.ParameterStore()
    params = init_params(config, store, np.random.default_rng(seed))
    if zero:
        for _, node in store.items():
            node.value[...] = 0.0
    return store, params


# gru_step ----------------------------------------------------------------------


def step(gru, x, h, ctx=None):
    """One cell step from an input vector, through the gates' input terms."""
    ctx = None if ctx is None else np.asarray(ctx, dtype=float)
    a = gate_inputs(gru, np.asarray([x], dtype=float), ctx)[0]
    return gru_step(gru, a, np.asarray(h, dtype=float))[1]


def zero_gru(in_dim, hid):
    store = ad.ParameterStore()
    cfg = toy_config(embedding_dim=in_dim, hidden_dim=hid)
    params = init_params(cfg, store, np.random.default_rng(0))
    for _, node in store.items():
        node.value[...] = 0.0
    return store, params.word_fwd


def test_gru_zero_fixed_point():
    _, gru = zero_gru(2, 3)
    h = step(gru, [1.0, -1.0], np.zeros(3))
    np.testing.assert_array_equal(h, np.zeros(3))


def test_gru_saturated_update_gate_carries_state():
    store, gru = zero_gru(2, 3)
    store["word_fwd.b_u"].value[...] = 100.0  # update gate ~= 1
    v = np.array([0.3, -0.7, 1.1])
    h = step(gru, [1.0, 2.0], v)
    np.testing.assert_allclose(h, v, atol=1e-12)


def test_gru_one_dim_hand_value():
    store, gru = zero_gru(1, 1)
    store["word_fwd.W_hx"].value[...] = 1.0
    h = step(gru, [1.0], [0.0])
    assert float(h[0]) == pytest.approx(0.5 * np.tanh(1.0), abs=1e-12)
    assert float(h[0]) == pytest.approx(0.380797, abs=1e-6)


def test_gru_context_term_only_when_given():
    store, params = make_params(toy_config(decoder_enabled=True), seed=41)
    gru = params.decoder.gru
    assert params.word_fwd.W_uc is None and gru.W_uc is store["decoder.W_uc"]
    rng = np.random.default_rng(42)
    x, h, ctx = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
    plain = step(gru, x, h)
    assert not np.allclose(step(gru, x, h, ctx), plain)
    for gate in "urh":
        store[f"decoder.W_{gate}c"].value[...] = 0.0
    np.testing.assert_array_equal(step(gru, x, h, ctx), plain)


def test_gru_one_dim_context_hand_value():
    store, params = make_params(
        toy_config(embedding_dim=1, hidden_dim=1, decoder_enabled=True), zero=True
    )
    store["decoder.W_hc"].value[...] = 1.0
    h = step(params.decoder.gru, [0.0], [0.0], [1.0])
    assert float(h[0]) == pytest.approx(0.5 * np.tanh(1.0), abs=1e-12)


# rel_segment --------------------------------------------------------------------


def test_rel_segment_first_sentence_is_zero():
    for n_d in (1, 5, 50):
        for s in (1, 5, 10):
            assert rel_segment(1, n_d, s) == 0


def test_rel_segment_formula():
    assert rel_segment(7, 10, 5) == 3


def test_rel_segment_last_sentence_hits_top_segment():
    for n_d in (5, 10, 17):
        assert rel_segment(n_d, n_d, 5) == 4


def test_rel_segment_range_check():
    with pytest.raises(IndexError):
        rel_segment(0, 3, 2)
    with pytest.raises(IndexError):
        rel_segment(4, 3, 2)


# encode_document ----------------------------------------------------------------


def test_encode_zero_params_all_zero():
    cfg = toy_config()
    _, params = make_params(cfg, zero=True)
    enc = encode_document(params, [[0, 1], [2, 3]])
    np.testing.assert_array_equal(enc.sentence_reps, np.zeros((2, cfg.hidden_dim)))
    np.testing.assert_array_equal(enc.doc_rep, np.zeros(cfg.hidden_dim))


def test_encode_single_sentence_doc_rep_exact():
    # mean over one sentence state is that state itself
    cfg = toy_config()
    _, params = make_params(cfg, seed=3)
    enc = encode_document(params, [[1, 4, 2]])
    expected = np.tanh(
        params.doc_W.value @ enc.sentence_states[0] + params.doc_b.value
    )
    np.testing.assert_allclose(enc.doc_rep, expected, atol=1e-12)


def test_encode_rejects_empty_docs():
    _, params = make_params(toy_config())
    with pytest.raises(ValueError):
        encode_document(params, [])
    with pytest.raises(ValueError):
        encode_document(params, [[1], []])


def test_pooled_vectors_depend_only_on_own_sentence():
    cfg = toy_config()
    _, params = make_params(cfg, seed=5)
    a, b, c = [1, 2], [3, 4, 5], [6, 7]
    enc = encode_document(params, [a, b, c])
    enc_rev = encode_document(params, [c, b, a])
    # the sentence layer's inputs are the word states averaged per sentence
    pooled, pooled_rev = enc.runs[2].inputs, enc_rev.runs[2].inputs
    np.testing.assert_allclose(pooled, pooled_rev[::-1], atol=1e-12)


def test_doc_rep_order_invariant_when_sentence_rnn_is_zero():
    cfg = toy_config()
    store, params = make_params(cfg, seed=7)
    for name, node in store.items():
        if name.startswith(("sent_fwd.", "sent_bwd.")):
            node.value[...] = 0.0
    d1 = encode_document(params, [[1, 2], [3, 4], [5, 6]]).doc_rep
    d2 = encode_document(params, [[5, 6], [1, 2], [3, 4]]).doc_rep
    np.testing.assert_allclose(d1, d2, atol=1e-12)


# score_sentences ----------------------------------------------------------------


def test_zero_params_probability_half_and_zero_factors():
    cfg = toy_config()
    _, params = make_params(cfg, zero=True)
    result = forward(params, [[0, 1], [2, 3], [4, 5]])
    for p in result.probability_values():
        assert p == 0.5
    assert result.factors.shape == (3, len(FACTORS))
    assert (result.factors == 0.0).all()


def test_novelty_always_zero_at_first_sentence():
    for seed in range(8):
        cfg = toy_config()
        _, params = make_params(cfg, seed=seed)
        result = forward(params, [[1, 2], [3, 4]])
        assert result.factors[0, NOVELTY] == 0.0


def test_one_dim_worked_example():
    # hand evaluation: P1 = sigma(1); novelty_2 = tanh(P1); P2 = sigma(1 - novelty_2)
    cfg = toy_config(embedding_dim=1, hidden_dim=1, position_embedding_dim=1)
    store, params = make_params(cfg, zero=True)
    store["score.w_content"].value[...] = 1.0
    store["score.W_novelty"].value[...] = 1.0
    probs, factors, _ = score_sentences(params, np.array([[1.0], [1.0]]), np.array([0.0]))
    assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-12)
    assert factors[1, NOVELTY] == pytest.approx(0.6237125498258757, abs=1e-12)
    assert probs[1] == pytest.approx(0.5929773699169132, abs=1e-12)


def test_breakdown_identity_sigma_of_sum():
    cfg = toy_config()
    _, params = make_params(cfg, seed=11)
    result = forward(params, [[1, 2, 3], [4, 5], [6, 7], [0, 1]])
    assert result.factors.shape == (4, len(FACTORS))
    probs = result.probabilities.value
    assert np.abs(reassembled(result.factors) - probs).max() < 1e-12


def test_summary_state_recurrence():
    cfg = toy_config()
    _, params = make_params(cfg, seed=13)
    enc = encode_document(params, [[1, 2], [3, 4], [5, 6]])
    probs, _, states = score_sentences(params, enc.sentence_reps, enc.doc_rep)
    assert len(states) == len(probs) + 1
    np.testing.assert_array_equal(states[0], np.zeros(cfg.hidden_dim))
    for j, (p, h) in enumerate(zip(probs, enc.sentence_reps)):
        np.testing.assert_allclose(states[j + 1] - states[j], p * h, atol=1e-12)


def test_forward_shapes_and_ranges():
    cfg = toy_config()
    _, params = make_params(cfg, seed=17)
    doc = [[1], [2, 3], [4, 5, 6], [7, 0]]
    result = forward(params, doc)
    assert result.probabilities.value.shape == (len(doc),)
    assert all(0.0 < p < 1.0 for p in result.probability_values())


def test_content_only_ablation_recovers_half_at_zero():
    cfg = toy_config()
    store, params = make_params(cfg, zero=True)
    result = forward(params, [[1, 2], [3, 4]])
    assert result.probability_values() == [0.5, 0.5]
    store["score.w_content"].value[...] = 0.7
    probs = forward(params, [[1, 2], [3, 4]]).probability_values()
    assert probs == [0.5, 0.5]  # reps are still zero, content term stays 0


def test_forward_gradients_match_finite_differences():
    # the second input has sentences of 1, 3 and 4 words, tokens repeated
    # within a sentence, more sentences than relative segments, and distinct
    # embedding, hidden and position dims
    inputs = [
        (toy_config(vocab_size=6, embedding_dim=2, hidden_dim=2), [[0, 1], [2, 3]], [1, 0]),
        (toy_config(embedding_dim=3, hidden_dim=4), [[5], [1, 2, 1], [3, 4, 0, 3]], [1, 0, 1]),
    ]
    for cfg, doc, labels in inputs:
        store, params = make_params(cfg, seed=19)
        # check at a generic moderate-magnitude point: every gradient element must
        # sit above the fp noise floor of the central-difference oracle
        rng = np.random.default_rng(99)
        for _, node in store.items():
            node.value[...] = rng.uniform(-0.8, 0.8, size=node.value.shape)
        err = ad.grad_check(lambda: extractive_loss(params, doc, labels), store, eps=1e-5)
        assert err < 1e-4


# checkpoints --------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    cfg = toy_config()
    store, params = make_params(cfg, seed=23)
    vocab = Vocabulary(["a", "b", "c", "d"])
    assert len(vocab) == cfg.vocab_size
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, vocab)
    store2, params2, cfg2, vocab2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2.index_to_token == vocab.index_to_token
    for name, node in store.items():
        np.testing.assert_array_equal(store2[name].value, node.value)
    doc = [[1, 2], [3, 4]]
    np.testing.assert_array_equal(
        forward(params, doc).probability_values(),
        forward(params2, doc).probability_values(),
    )


def test_checkpoint_save_is_deterministic(tmp_path):
    cfg = toy_config()
    store, _ = make_params(cfg, seed=29)
    vocab = Vocabulary(["a", "b", "c", "d"])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, store, cfg, vocab)
    save_checkpoint(p2, store, cfg, vocab)
    assert p1.read_bytes() == p2.read_bytes()


def fill_disk_after(monkeypatch, budget):
    """Make files that rnnsum.model opens for writing take `budget` bytes, then
    fail as a full disk does: a short write followed by ENOSPC."""
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.left = fh, budget

        def write(self, data):
            if len(data) > self.left:
                self.fh.write(data[: self.left])
                self.left = 0
                raise OSError(errno.ENOSPC, "No space left on device")
            self.left -= len(data)
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return FullDisk(fh) if "w" in mode else fh

    monkeypatch.setattr("rnnsum.model.open", fake_open, raising=False)


def write_fails_part_way(tmp_path, monkeypatch, copy):
    """A rewrite of a checkpoint hits a full disk part-way through its tensors;
    the previous file must survive whole, with no temporary file left."""
    cfg = toy_config()
    store, _ = make_params(cfg, seed=31)
    vocab = Vocabulary(["a", "b", "c", "d"])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, vocab)
    before = path.read_bytes()

    for _, node in store.items():
        node.value += 1.0
    source = tmp_path / "source.json"
    if copy:
        save_checkpoint(source, store, cfg, vocab)
    budget = len(before) // 2
    assert before.index(b'"params":{') < budget
    fill_disk_after(monkeypatch, budget)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, store, cfg, vocab, copy_of=source if copy else None)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"] + (
        ["source.json"] if copy else []
    )
    load_checkpoint(path)


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    write_fails_part_way(tmp_path, monkeypatch, copy=False)


def test_checkpoint_failed_copy_keeps_previous_file(tmp_path, monkeypatch):
    write_fails_part_way(tmp_path, monkeypatch, copy=True)


def test_checkpoint_bytes_are_the_v1_json_document(tmp_path):
    cfg = toy_config(decoder_enabled=True)
    store, _ = make_params(cfg, seed=41)
    names = [name for name, _ in store.items()]
    assert names != sorted(names)  # the file orders tensors by name, not by insertion
    vocab = Vocabulary(["b", "a", "é", 'q"'])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, vocab)
    payload = {
        "format": "rnnsum-checkpoint",
        "version": 1,
        "config": dataclasses.asdict(cfg),
        "vocab": ["b", "a", "é", 'q"'],
        "params": {
            name: {"shape": list(node.value.shape), "data": node.value.reshape(-1).tolist()}
            for name, node in store.items()
        },
    }
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


def test_checkpoint_version_mismatch_fails_loudly(tmp_path):
    cfg = toy_config()
    store, _ = make_params(cfg, seed=31)
    vocab = Vocabulary(["a", "b", "c", "d"])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, vocab)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)



def test_checkpoint_with_a_non_finite_value_fails_loudly(tmp_path):
    cfg = toy_config()
    store, _ = make_params(cfg, seed=31)
    store["score.w_content"].value[2] = np.nan
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, Vocabulary(["a", "b", "c", "d"]))
    with pytest.raises(CheckpointError, match=r"ckpt\.json: parameter 'score.w_content'"):
        load_checkpoint(path)


def test_checkpoint_decoder_params_included(tmp_path):
    cfg = toy_config(decoder_enabled=True)
    store, params = make_params(cfg, seed=37)
    assert params.decoder is not None
    vocab = Vocabulary(["a", "b", "c", "d"])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, store, cfg, vocab)
    store2, params2, _, _ = load_checkpoint(path)
    assert params2.decoder is not None
    np.testing.assert_array_equal(
        store2["decoder.out.W"].value, store["decoder.out.W"].value
    )


def test_parameter_shapes_cover_wiring():
    cfg = toy_config(decoder_enabled=True)
    store = ad.ParameterStore()
    for name, shape in parameter_shapes(cfg).items():
        store.add(name, np.zeros(shape))
    params = wire_params(store, cfg)
    assert params.embedding.value.shape == (cfg.vocab_size, cfg.embedding_dim)
    assert params.decoder.out_W.value.shape == (cfg.vocab_size, cfg.dec_ff)
