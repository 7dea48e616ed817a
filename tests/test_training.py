import gc
import itertools
import json
import math

import numpy as np
import pytest
import reference_tape as tape

from rnnsum import autodiff as ad
from rnnsum.corpus import Document, Vocabulary
from rnnsum.model import ModelConfig, forward, init_params
from rnnsum.training import (
    TrainConfig,
    TrainingError,
    abstractive_loss,
    adadelta_step,
    clip_gradients,
    decoder_forward,
    extractive_loss,
    train,
)


def toy_config(**overrides):
    base = dict(
        vocab_size=10,
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


def toy_vocab(config):
    return Vocabulary([f"t{i}" for i in range(config.vocab_size - 4)])


# extractive loss ----------------------------------------------------------------


def test_extractive_loss_zero_params_is_n_ln2():
    _, params = make_params(toy_config(), zero=True)
    doc = [[4, 5], [6, 7], [8, 9], [4, 6]]
    loss = extractive_loss(params, doc, [1, 0, 1, 0])
    assert float(loss.value) == pytest.approx(4 * math.log(2), abs=1e-12)


def test_extractive_loss_confident_prediction():
    # single sentence, rig the bias so P = 0.99 and the label agrees
    cfg = toy_config()
    store, params = make_params(cfg, zero=True)
    store["score.b"].value[...] = math.log(0.99 / 0.01)
    loss = extractive_loss(params, [[4, 5]], [1])
    assert float(loss.value) == pytest.approx(-math.log(0.99), abs=1e-9)
    assert float(loss.value) == pytest.approx(0.01005, abs=1e-5)


def test_extractive_loss_doubling_document_doubles_loss():
    _, params = make_params(toy_config(), zero=True)
    single = extractive_loss(params, [[4], [5]], [1, 0])
    double = extractive_loss(params, [[4], [5], [4], [5]], [1, 0, 1, 0])
    assert float(double.value) == pytest.approx(2 * float(single.value), abs=1e-12)


def test_extractive_loss_requires_labels():
    _, params = make_params(toy_config())
    with pytest.raises(TrainingError):
        extractive_loss(params, [[4]], None)
    with pytest.raises(TrainingError):
        extractive_loss(params, [[4], [5]], [1])


# decoder ------------------------------------------------------------------------


def test_decoder_zero_params_uniform_nll():
    cfg = toy_config(decoder_enabled=True)
    _, params = make_params(cfg, zero=True)
    reference = [4, 5, 6]
    loss = abstractive_loss(params, [[4, 5], [6, 7]], reference)
    assert float(loss.value) == pytest.approx(len(reference) * math.log(cfg.vocab_size), abs=1e-9)


def test_decoder_crafted_logits():
    # one-step reference; rig the output layer so logits are [10, 0, 0, ...]
    cfg = toy_config(decoder_enabled=True)
    store, params = make_params(cfg, zero=True)
    store["decoder.out.b"].value[0] = 10.0
    s_last = ad.Node(np.zeros(cfg.hidden_dim))
    loss = decoder_forward(params.decoder, params.embedding, s_last, [0], cfg.dec_hidden)
    expected = -math.log(math.exp(10) / (math.exp(10) + (cfg.vocab_size - 1)))
    assert float(loss.value) == pytest.approx(expected, abs=1e-12)


def test_decoder_empty_reference_rejected():
    cfg = toy_config(decoder_enabled=True)
    _, params = make_params(cfg)
    with pytest.raises(TrainingError):
        abstractive_loss(params, [[4]], [])


def test_abstractive_grads_reach_encoder_through_summary_state():
    cfg = toy_config(decoder_enabled=True)
    store, params = make_params(cfg, seed=3)
    store.zero_grad()
    loss = abstractive_loss(params, [[4, 5], [6, 7]], [4, 6, 5])
    ad.backward(loss)
    assert np.abs(store["word_fwd.W_hx"].grad).max() > 0
    assert np.abs(store["sent_fwd.W_hx"].grad).max() > 0
    assert np.abs(store["score.w_content"].grad).max() > 0


def test_zeroing_context_matrices_cuts_encoder_gradients():
    cfg = toy_config(decoder_enabled=True)
    store, params = make_params(cfg, seed=3)
    for name in ("decoder.W_uc", "decoder.W_rc", "decoder.W_hc", "decoder.emit.W_c"):
        store[name].value[...] = 0.0
    store.zero_grad()
    loss = abstractive_loss(params, [[4, 5], [6, 7]], [4, 6, 5])
    ad.backward(loss)
    # the summary state is the only channel into the encoder stack; with the
    # context matrices zeroed, everything upstream of it gets exactly zero
    # (the shared embedding still learns through the decoder's own inputs)
    for name, node in store.items():
        if name == "embedding" or name.startswith("decoder."):
            continue
        assert np.abs(node.grad).max() == 0.0, name
    assert np.abs(store["embedding"].grad).max() > 0


def test_abstractive_gradients_match_finite_differences():
    # the second input has sentences of 1, 3 and 4 words, a token repeated
    # within a sentence and within the reference, more sentences than relative
    # segments, and distinct embedding, hidden, decoder and emission dims
    inputs = [
        (dict(vocab_size=8, embedding_dim=2, hidden_dim=2), [[0, 1], [2, 3]], [4, 5, 6]),
        (
            dict(
                vocab_size=8, embedding_dim=3, hidden_dim=4, decoder_hidden_dim=5, decoder_ff_dim=6
            ),
            [[5], [1, 2, 1], [3, 4, 0, 3]],
            [4, 5, 4, 6],
        ),
    ]
    for dims, doc, reference in inputs:
        store, params = make_params(toy_config(**dims, decoder_enabled=True), seed=4)
        rng = np.random.default_rng(44)
        for _, node in store.items():
            node.value[...] = rng.uniform(-0.8, 0.8, size=node.value.shape)
        err = ad.grad_check(lambda: abstractive_loss(params, doc, reference), store, eps=1e-5)
        assert err < 1e-4


# clipping -----------------------------------------------------------------------


def test_clip_rescales_to_unit_norm():
    store = ad.ParameterStore()
    w = store.add("w", np.zeros(2))
    w.grad[...] = [3.0, 4.0]
    norm = clip_gradients(store, 1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(w.grad, [0.6, 0.8], atol=1e-12)


def test_clip_noop_below_threshold():
    store = ad.ParameterStore()
    w = store.add("w", np.zeros(2))
    w.grad[...] = [0.3, 0.4]
    clip_gradients(store, 1.0)
    np.testing.assert_allclose(w.grad, [0.3, 0.4])


def test_clip_zero_gradients_safe():
    store = ad.ParameterStore()
    w = store.add("w", np.zeros(3))
    clip_gradients(store, 1.0)
    np.testing.assert_array_equal(w.grad, np.zeros(3))


def test_clip_preserves_direction_and_caps_norm():
    rng = np.random.default_rng(0)
    store = ad.ParameterStore()
    a = store.add("a", np.zeros(5))
    b = store.add("b", np.zeros((2, 2)))
    a.grad[...] = rng.normal(size=5) * 10
    b.grad[...] = rng.normal(size=(2, 2)) * 10
    before = np.concatenate([a.grad.ravel(), b.grad.ravel()]).copy()
    clip_gradients(store, 2.5)
    after = np.concatenate([a.grad.ravel(), b.grad.ravel()])
    cos = after @ before / (np.linalg.norm(after) * np.linalg.norm(before))
    assert cos == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(after) == pytest.approx(2.5, abs=1e-9)


# adadelta -----------------------------------------------------------------------


def test_adadelta_first_step_value():
    store = ad.ParameterStore()
    w = store.add("w", np.array([1.0]))
    w.grad[...] = 1.0
    adadelta_step(store, rho=0.95, eps=1e-6)
    delta = float(w.value[0]) - 1.0
    assert delta == pytest.approx(-0.0044721, abs=1e-7)
    assert float(store.sq_grad["w"][0]) == pytest.approx(0.05, abs=1e-12)


def test_adadelta_zero_gradient_keeps_value():
    store = ad.ParameterStore()
    w = store.add("w", np.array([2.0]))
    store.sq_grad["w"][...] = 0.3
    store.sq_delta["w"][...] = 0.1
    adadelta_step(store, rho=0.95, eps=1e-6)
    assert float(w.value[0]) == 2.0
    assert float(store.sq_grad["w"][0]) == pytest.approx(0.95 * 0.3)
    assert float(store.sq_delta["w"][0]) == pytest.approx(0.95 * 0.1)


def test_adadelta_moves_against_gradient():
    rng = np.random.default_rng(1)
    store = ad.ParameterStore()
    w = store.add("w", np.zeros(8))
    w.grad[...] = rng.normal(size=8)
    before = w.value.copy()
    adadelta_step(store)
    moved = w.value - before
    nz = w.grad != 0
    assert np.all(np.sign(moved[nz]) == -np.sign(w.grad[nz]))


def test_single_step_decreases_example_loss():
    cfg = toy_config()
    store, params = make_params(cfg, seed=7)
    doc = [[4, 5], [6, 7]]
    labels = [1, 0]
    before = float(extractive_loss(params, doc, labels).value)
    # adadelta's first-step magnitude is ~sqrt(eps)/RMS[g]; one step at the
    # default settings is small enough to behave like steepest descent here
    store.zero_grad()
    loss = extractive_loss(params, doc, labels)
    ad.backward(loss)
    clip_gradients(store, 5.0)
    adadelta_step(store)
    after = float(extractive_loss(params, doc, labels).value)
    assert after < before


# train loop ---------------------------------------------------------------------


def tiny_corpus(vocab_size=10):
    tokens = [f"t{i}" for i in range(vocab_size - 4)]
    docs = []
    for d in range(6):
        sentences = [[tokens[(d + i) % len(tokens)], tokens[(d + 2 * i + 1) % len(tokens)]] for i in range(3)]
        labels = [1 if i == d % 3 else 0 for i in range(3)]
        summary = [sentences[d % 3]]
        docs.append(Document(f"doc{d}", sentences, summary=summary, labels=labels))
    return docs


def test_train_writes_report_and_checkpoints(tmp_path):
    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    vocab = toy_vocab(cfg)
    docs = tiny_corpus()
    config = TrainConfig(mode="extractive", batch_size=2, max_epochs=3, patience=3, seed=5)
    report = train(store, params, vocab, docs, docs, config, tmp_path)
    assert (tmp_path / "checkpoint_best.json").exists()
    assert (tmp_path / "checkpoint_final.json").exists()
    assert (tmp_path / "training_report.json").exists()
    assert report.stopped_epoch <= 3
    assert len(report.epochs) == report.stopped_epoch
    assert report.final_train_accuracy is not None
    parsed = json.loads((tmp_path / "training_report.json").read_text())
    assert parsed["best_checkpoint"] == "checkpoint_best.json"


def test_train_early_stops_with_patience_one(tmp_path, monkeypatch):
    # validation loss worsens after epoch 1 -> stop at epoch 2, best = epoch 1
    import rnnsum.training as training_mod

    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    vocab = toy_vocab(cfg)
    docs = tiny_corpus()
    fake_losses = iter([1.0, 2.0, 3.0, 4.0, 5.0])
    monkeypatch.setattr(
        training_mod, "_validation_loss", lambda params_, ex_, mode_: next(fake_losses)
    )
    config = TrainConfig(mode="extractive", batch_size=6, max_epochs=5, patience=1, seed=5)
    report = train(store, params, vocab, docs, docs, config, tmp_path)
    assert report.stopped_epoch == 2
    assert report.best_epoch == 1
    assert [e.valid_loss for e in report.epochs] == [1.0, 2.0]


def test_train_patience_window_spans_epochs(tmp_path, monkeypatch):
    # patience 2: one bad epoch is tolerated, two consecutive bad epochs stop
    import rnnsum.training as training_mod

    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    vocab = toy_vocab(cfg)
    docs = tiny_corpus()
    fake_losses = iter([3.0, 2.0, 2.5, 2.6, 1.0])
    monkeypatch.setattr(
        training_mod, "_validation_loss", lambda params_, ex_, mode_: next(fake_losses)
    )
    config = TrainConfig(mode="extractive", batch_size=6, max_epochs=5, patience=2, seed=5)
    report = train(store, params, vocab, docs, docs, config, tmp_path)
    assert report.stopped_epoch == 4
    assert report.best_epoch == 2


def test_train_determinism_same_seed(tmp_path):
    def run(out):
        cfg = toy_config()
        store, params = make_params(cfg, seed=1)
        vocab = toy_vocab(cfg)
        config = TrainConfig(mode="extractive", batch_size=2, max_epochs=3, patience=3, seed=9)
        return train(store, params, vocab, tiny_corpus(), tiny_corpus(), config, out)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    assert r1.to_json() == r2.to_json()
    assert (tmp_path / "a/checkpoint_final.json").read_bytes() == (
        tmp_path / "b/checkpoint_final.json"
    ).read_bytes()


def test_train_mode_data_mismatch_fails_before_training(tmp_path):
    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    vocab = toy_vocab(cfg)
    unlabeled = [Document("u", [["t0"], ["t1"]], summary=[["t0"]])]
    with pytest.raises(TrainingError, match="lacks extractive labels"):
        train(
            store,
            params,
            vocab,
            unlabeled,
            unlabeled,
            TrainConfig(mode="extractive", max_epochs=1),
            tmp_path,
        )
    no_summary = [Document("n", [["t0"]], labels=[1])]
    cfg2 = toy_config(decoder_enabled=True)
    store2, params2 = make_params(cfg2, seed=1)
    with pytest.raises(TrainingError, match="lacks a reference summary"):
        train(
            store2,
            params2,
            vocab,
            no_summary,
            no_summary,
            TrainConfig(mode="abstractive", max_epochs=1),
            tmp_path,
        )


def test_abstractive_mode_requires_decoder(tmp_path):
    cfg = toy_config()  # decoder_enabled=False
    store, params = make_params(cfg, seed=1)
    with pytest.raises(TrainingError, match="decoder"):
        train(
            store,
            params,
            toy_vocab(cfg),
            tiny_corpus(),
            tiny_corpus(),
            TrainConfig(mode="abstractive", max_epochs=1),
            tmp_path,
        )


def test_validation_loss_frozen_parameters(tmp_path):
    cfg = toy_config()
    store, params = make_params(cfg, seed=2)
    vocab = toy_vocab(cfg)
    docs = tiny_corpus()
    config = TrainConfig(mode="extractive", batch_size=3, max_epochs=1, seed=3)
    train(store, params, vocab, docs, docs, config, tmp_path)
    # evaluating twice without steps yields identical values
    from rnnsum.training import _example_loss, _prepare

    examples = _prepare(docs, vocab, "extractive", "validation")
    v1 = [float(_example_loss(params, ex, "extractive").value) for ex in examples]
    v2 = [float(_example_loss(params, ex, "extractive").value) for ex in examples]
    assert v1 == v2



def test_train_stops_on_a_non_finite_loss(tmp_path):
    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    store["score.w_content"].value[0] = np.nan
    config = TrainConfig(mode="extractive", batch_size=2, max_epochs=3, seed=5)
    with pytest.raises(TrainingError, match=r"epoch 1, batch 1: loss nan on document 'doc\d'"):
        train(store, params, toy_vocab(cfg), tiny_corpus(), tiny_corpus(), config, tmp_path)
    assert not (tmp_path / "training_report.json").exists()


def test_train_stops_on_a_non_finite_gradient_norm(tmp_path, monkeypatch):
    cfg = toy_config()
    store, params = make_params(cfg, seed=1)
    backward, calls = ad.backward, itertools.count(1)

    def poisoned_backward(root):
        backward(root)
        if next(calls) == 5:  # the first document of the third batch
            store["score.b"].grad[...] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned_backward)
    config = TrainConfig(mode="extractive", batch_size=2, max_epochs=3, seed=5)
    with pytest.raises(TrainingError, match=r"epoch 1, batch 3: gradient norm nan before clipping"):
        train(store, params, toy_vocab(cfg), tiny_corpus(), tiny_corpus(), config, tmp_path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="reinforce")
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)


# reference tape -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["extractive", "abstractive"])
def test_layers_match_the_reference_tape(mode):
    cfg = toy_config(
        vocab_size=9, decoder_enabled=True, decoder_hidden_dim=5, decoder_ff_dim=6
    )
    store, params = make_params(cfg, seed=8)
    rng = np.random.default_rng(88)
    for _, node in store.items():
        node.value[...] = rng.uniform(-0.8, 0.8, size=node.value.shape)
    doc = [[4], [5, 6, 5], [7, 8, 4, 4], [6, 6], [8]]
    target = [1, 0, 1, 1, 0] if mode == "extractive" else [5, 6, 5, 8, 4]
    ours, ref = (
        (extractive_loss, tape.extractive_loss)
        if mode == "extractive"
        else (abstractive_loss, tape.abstractive_loss)
    )
    np.testing.assert_allclose(
        forward(params, doc).probability_values(),
        [float(p.value) for p in tape.forward(params, doc)[0]],
        rtol=0, atol=1e-12,
    )
    grads = []
    for build in (ours, ref):
        store.zero_grad()
        loss = build(params, doc, target)
        ad.backward(loss)
        grads.append((float(loss.value), {n: node.grad.copy() for n, node in store.items()}))
    (loss, got), (want_loss, want) = grads
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-12, err_msg=name)


# graph lifetime -------------------------------------------------------------------


def test_serving_forward_allocates_no_gradients():
    _, params = make_params(toy_config(), seed=5)
    result = forward(params, [[4, 5], [6, 7, 8]])
    assert result.probabilities.grad is None and result.s_last.grad is None


def test_graphs_freed_without_the_cycle_collector():
    _, params = make_params(toy_config(decoder_enabled=True), seed=5)
    doc = [[4, 5], [6, 7, 8]]

    def live_nodes():
        return sum(isinstance(o, ad.Node) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_nodes()
        result = forward(params, doc)
        assert live_nodes() > before
        del result
        assert live_nodes() == before
        loss = extractive_loss(params, doc, [1, 0])
        ad.backward(loss)
        del loss
        assert live_nodes() == before
        loss = abstractive_loss(params, doc, [4, 6, 5])
        ad.backward(loss)
        del loss
        assert live_nodes() == before
    finally:
        gc.enable()
