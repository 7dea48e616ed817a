"""Spans and counters around the program's public functions.

The wrappers are installed from outside the program, at the module attribute
each caller looks up, so the program itself is unchanged. Fine-grained calls
(one GRU step, one ROUGE call) are aggregated into per-command totals rather
than kept as one span each. A span's self time is its duration minus the
time covered by the wrapped calls made inside it.

`SetupTimer` is the only part installed in untraced runs: four wrappers
called a handful of times per command, which time the set-up that the
end-to-end rates exclude.
"""

from __future__ import annotations

import gc
import importlib
from collections import defaultdict
from time import perf_counter

SETUP_FUNCTIONS = (
    ("rnnsum.cli", "load_corpus"),
    ("rnnsum.cli", "build_vocab"),
    ("rnnsum.cli", "init_params"),
    ("rnnsum.cli", "load_checkpoint"),
)


def _patch(module_name: str, attr: str, make_wrapper) -> bool:
    """Replace module.attr with make_wrapper(original); False if it is gone."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return False
    setattr(module, attr, make_wrapper(original))
    return True


class SetupTimer:
    """Sums time in the program's set-up functions (outermost calls only)."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0

    def install(self) -> None:
        for module_name, attr in SETUP_FUNCTIONS:
            _patch(module_name, attr, self._wrap)

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += perf_counter() - start

        return wrapper


class Tracer:
    """Per-command totals of span times and counts, keyed `<layer>.<metric>`."""

    def __init__(self):
        self.command = "none"
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []  # wrapped names the program no longer has
        self.absent_keys: set[str] = set()  # metrics those names would have produced
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._gru_layer: dict[int, str] = {}  # id(GruParams) -> "word" | "sent"
        self._gc_start = 0.0

    def add(self, key: str, amount: float) -> None:
        self.totals[self.command][key] += amount

    # -- spans ---------------------------------------------------------------

    def _span(self, fn, time_key, self_key=None, count_key=None, count=None):
        def wrapper(*args, **kwargs):
            if count_key is not None:
                self.add(count_key, count(args) if count else 1)
            self._stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._stack.pop()
                self.add(time_key, elapsed)
                if self_key is not None:
                    self.add(self_key, elapsed - children)
                if self._stack:
                    self._stack[-1] += elapsed

        return wrapper

    def _count(self, key: str, measure) -> None:
        """Add a count whose computation is tracing work, kept out of self times."""
        start = perf_counter()
        self.add(key, measure())
        if self._stack:
            self._stack[-1] += perf_counter() - start

    def _missing(self, module_name: str, attr: str, keys) -> None:
        self.absent.append(f"{module_name}.{attr}")
        self.absent_keys.update(k for k in keys if k)

    def _span_patch(self, module_name, attr, time_key, self_key=None, count_key=None, count=None) -> None:
        if not _patch(module_name, attr, lambda fn: self._span(fn, time_key, self_key, count_key, count)):
            self._missing(module_name, attr, (time_key, self_key, count_key))

    def install(self) -> None:
        from rnnsum import autodiff

        graph_nodes = autodiff.graph_nodes
        tracer = self

        def wire(fn):
            def wrapper(store, config):
                # every GruParams comes from here, so an id reused after a
                # model is freed is registered again before its first step
                params = fn(store, config)
                for name, layer in (
                    ("word_fwd", "word"),
                    ("word_bwd", "word"),
                    ("sent_fwd", "sent"),
                    ("sent_bwd", "sent"),
                ):
                    gru = getattr(params, name, None)
                    if gru is not None:
                        tracer._gru_layer[id(gru)] = layer
                return params

            return wrapper

        def gru_step(fn):
            def wrapper(gru, *args, **kwargs):
                layer = tracer._gru_layer.get(id(gru), "other")
                tracer.add(f"model.{layer}_gru_steps", 1)
                tracer._stack.append(0.0)
                start = perf_counter()
                try:
                    return fn(gru, *args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer._stack.pop()
                    tracer.add(f"model.{layer}_gru_s", elapsed)
                    if tracer._stack:
                        tracer._stack[-1] += elapsed

            return wrapper

        def backward(fn):
            timed = self._span(fn, "autodiff.backward_s")

            def wrapper(root):
                tracer._count("autodiff.tape_nodes", lambda: len(graph_nodes(root)))
                return timed(root)

            return wrapper

        def serving_forward(fn):
            def wrapper(params, sent_ids):
                result = fn(params, sent_ids)
                tracer._count("autodiff.tape_nodes", lambda: len(graph_nodes(result.s_last)))
                return result

            return wrapper

        def evaluate_summary(fn):
            from rnnsum.rouge import flatten, truncate

            timed = self._span(fn, "rouge.score_s")

            def wrapper(candidate, reference, limit):
                tracer._count(
                    "rouge.lcs_cells",
                    lambda: len(truncate(candidate, limit)) * len(flatten(reference)),
                )
                return timed(candidate, reference, limit)

            return wrapper

        gru_keys = ("model.word_gru_s", "model.word_gru_steps", "model.sent_gru_s", "model.sent_gru_steps")
        patches = [
            ("rnnsum.model", "wire_params", wire, gru_keys),
            ("rnnsum.model", "gru_step", gru_step, gru_keys),
            ("rnnsum.autodiff", "backward", backward, ("autodiff.backward_s",)),
            ("rnnsum.cli", "forward", serving_forward, ("autodiff.tape_nodes",)),
            ("rnnsum.evaluation", "evaluate_summary", evaluate_summary, ("rouge.score_s", "rouge.lcs_cells")),
        ]
        for module_name, attr, make, keys in patches:
            if not _patch(module_name, attr, make):
                self._missing(module_name, attr, keys)

        span = self._span_patch
        span("rnnsum.model", "encode_document", "model.encode_s", "model.encode_self_s")
        span("rnnsum.model", "score_sentences", "model.score_s")
        span("rnnsum.training", "decoder_forward", "training.decoder_s",
             count_key="training.decoder_words", count=lambda a: len(a[3]))
        span("rnnsum.training", "clip_gradients", "training.clip_s")
        span("rnnsum.training", "adadelta_step", "training.adadelta_s", count_key="training.steps")
        span("rnnsum.training", "save_checkpoint", "model.save_s", count_key="model.saves")
        span("rnnsum.cli", "train", "training.loop_s", "training.loop_self_s")
        span("rnnsum.cli", "load_checkpoint", "model.load_s")
        span("rnnsum.cli", "load_corpus", "corpus.load_s")
        span("rnnsum.cli", "build_vocab", "corpus.vocab_s")
        span("rnnsum.cli", "init_params", "model.init_s")
        span("rnnsum.cli", "write_corpus", "corpus.write_s")
        span("rnnsum.oracle", "greedy_trace", "oracle.greedy_s")
        span("rnnsum.oracle", "rouge_n", "oracle.rouge_s", count_key="oracle.rouge_calls")
        span("rnnsum.cli", "select", "evaluation.select_s")
        span("rnnsum.evaluation", "select", "evaluation.select_s")
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.add("python.gc_s", perf_counter() - self._gc_start)
        if info.get("generation") == 2:
            self.add("python.gc_full_collections", 1)
