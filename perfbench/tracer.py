"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the functions each rsvp layer exposes with
timing wrappers, on every name a caller looks up: a module attribute
(``ad.matmul``), a name imported into another module
(``training.adamw_step``) or a class attribute
(``ConversationalEncoder.forward_hidden``). A wrapper keeps a stack of
open spans, so each layer's self time is its span minus the spans of the
layers it called. Totals are kept per benchmark phase; nothing is kept per
call. ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

from rsvp import autodiff as ad
from rsvp import checkpoint, cli, losses, metrics, model, optim, text
from rsvp import training as tr

_MARK = "__perfbench_wrapped__"

AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "tanh", "log", "sqrt", "sigmoid", "softplus",
    "gelu", "clamp_min", "matmul", "reshape", "transpose", "tsum", "tmean", "token_at",
    "narrow0", "softmax", "log_softmax", "embedding", "gather_last", "layer_norm",
    "dropout", "cosine_similarity",
)
LOSS_FUNCTIONS = (
    "retrieval_loss", "generation_loss", "classification_loss", "multilabel_loss",
    "unsup_contrastive_loss", "combined_finetune_loss", "cosine_matrix",
)
# training stage entry points and the name their loss time is filed under
STAGES = {"pretrain_retrieval": "retrieval", "pretrain_generation": "generation",
          "finetune": "finetune"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.backward_calls", "count", "lower"),
    ("autodiff.matmul_s", "s", "lower"),
    ("autodiff.matmul_calls", "count", "lower"),
    ("autodiff.matmul_flops", "flop", "lower"),
    ("autodiff.gelu_s", "s", "lower"),
    ("autodiff.softmax_s", "s", "lower"),
    ("autodiff.log_softmax_s", "s", "lower"),
    ("autodiff.layer_norm_s", "s", "lower"),
    ("autodiff.dropout_s", "s", "lower"),
    ("autodiff.embedding_s", "s", "lower"),
    ("autodiff.op_calls", "count", "lower"),
    ("optim.adamw_s", "s", "lower"),
    ("optim.adamw_calls", "count", "lower"),
    ("optim.param_elems_updated", "count", "lower"),
    ("model.encoder_forward_s", "s", "lower"),
    ("model.encoder_forward_calls", "count", "lower"),
    ("model.decoder_forward_s", "s", "lower"),
    ("model.decoder_forward_calls", "count", "lower"),
    ("model.token_slots", "count", "lower"),
    ("model.pad_fraction", "ratio", "lower"),
    ("model.generate_s", "s", "lower"),
    ("losses.retrieval_s", "s", "lower"),
    ("losses.generation_s", "s", "lower"),
    ("losses.finetune_s", "s", "lower"),
    ("training.prepare_s", "s", "lower"),
    ("training.valid_eval_s", "s", "lower"),
    ("training.steps", "count", "lower"),
    ("text.tokenize_s", "s", "lower"),
    ("text.encode_s", "s", "lower"),
    ("text.build_vocab_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("metrics.export_embeddings_s", "s", "lower"),
    ("cli.predict_s", "s", "lower"),
    ("trace.train_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _rsvp_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rsvp" or name.startswith("rsvp."))]


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self._stack: list = []  # one [child seconds] cell per open span
        self._patches: list = []  # (owner, attribute, original)
        self._totals: dict = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.stage = None  # the training stage running, for loss attribution

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, fn, key, count=None, stage=None):
        """Wrap ``fn`` so each call adds its self time to ``key``_s and one
        to ``key``_calls; ``count(args, kwargs, out, seconds, totals)`` adds
        layer counters. ``key`` may be a callable evaluated per call."""
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key() if callable(key) else key
            saved_stage = tracer.stage
            if stage is not None:
                tracer.stage = stage
            cell = [0.0]
            stack.append(cell)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                stack.pop()
                tracer.stage = saved_stage
                totals = tracer._totals[tracer.phase]
                totals[name + "_s"] += seconds - cell[0]
                totals[name + "_calls"] += 1
                if stack:
                    stack[-1][0] += seconds
            if count is not None:
                count(args, kwargs, out, seconds, tracer._totals[tracer.phase])
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counter(self, fn, count):
        """Wrap ``fn`` to add counters only; its time stays with the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(args, kwargs, out, 0.0, tracer._totals[tracer.phase])
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    # ------------------------------------------------------------------
    # counters

    @staticmethod
    def _count_matmul(args, kwargs, out, seconds, totals):
        a, b = args[0].data, args[1].data
        m, k = a.shape[-2], a.shape[-1]
        n = b.shape[-1]
        batch = math.prod(out.data.shape[:-2])
        totals["autodiff.matmul_flops"] += 2.0 * batch * m * k * n

    def _count_backward(self, args, kwargs, out, seconds, totals):
        if self.stage is not None:
            totals["training.steps"] += 1

    @staticmethod
    def _count_adamw(args, kwargs, out, seconds, totals):
        params = _arg(args, kwargs, 0, "params", [])
        totals["optim.param_elems_updated"] += sum(p.data.size for p in params)

    @staticmethod
    def _count_pad(args, kwargs, out, seconds, totals):
        _, mask = out
        totals["model.token_slots"] += mask.size
        totals["model.pad_slots"] += mask.size - float(mask.sum())

    def _count_encoder(self, args, kwargs, out, seconds, totals):
        # eval-mode encoder passes inside finetune are its validation scoring
        if self.stage == "finetune" and not _arg(args, kwargs, 2, "training", False):
            totals["training.valid_eval_s"] += seconds

    @staticmethod
    def _count_save(args, kwargs, out, seconds, totals):
        totals["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path", None))

    # ------------------------------------------------------------------
    # install / uninstall

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced function."""
        t = []
        for op in AUTODIFF_OPS:
            count = self._count_matmul if op == "matmul" else None
            t.append((ad, op, lambda f, op=op, c=count: self._span(f, f"autodiff.{op}", c)))
        t.append((ad, "backward",
                  lambda f: self._span(f, "autodiff.backward", self._count_backward)))
        t.append((optim, "adamw_step", lambda f: self._span(f, "optim.adamw", self._count_adamw)))
        t.append((model.ConversationalEncoder, "forward_hidden",
                  lambda f: self._span(f, "model.encoder_forward", self._count_encoder)))
        t.append((model.ResponseDecoder, "forward_teacher_forced",
                  lambda f: self._span(f, "model.decoder_forward")))
        t.append((model.ResponseDecoder, "generate", lambda f: self._span(f, "model.generate")))
        t.append((model, "pad_batch", lambda f: self._counter(f, self._count_pad)))
        loss_key = lambda: f"losses.{self.stage or 'other'}"  # noqa: E731
        for fn in LOSS_FUNCTIONS:
            t.append((losses, fn, lambda f: self._span(f, loss_key)))
        for fn, stage in STAGES.items():
            t.append((tr, fn, lambda f, s=stage: self._span(f, f"training.{s}", stage=s)))
        t.append((tr, "prepare", lambda f: self._span(f, "training.prepare")))
        t.append((text, "tokenize", lambda f: self._span(f, "text.tokenize")))
        t.append((text, "encode", lambda f: self._span(f, "text.encode")))
        t.append((text, "build_vocab", lambda f: self._span(f, "text.build_vocab")))
        t.append((checkpoint, "save_checkpoint",
                  lambda f: self._span(f, "checkpoint.save", self._count_save)))
        t.append((checkpoint, "load_checkpoint", lambda f: self._span(f, "checkpoint.load")))
        t.append((metrics, "export_embeddings",
                  lambda f: self._span(f, "metrics.export_embeddings")))
        t.append((cli, "cmd_predict", lambda f: self._span(f, "cli.predict")))
        return t

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _rsvp_modules()
        for owner, attr, factory in self._targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                owner_list = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                # every module that imported the function by name looks it
                # up there, under whatever name it chose
                owner_list = [(m, name) for m in modules
                              for name, value in list(vars(m).items()) if value is original]
            wrapper = factory(original)
            for obj, name in owner_list:
                self._patches.append((obj, name, original))
                setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches = []
        assert_untraced()

    # ------------------------------------------------------------------
    # report

    def per_layer(self, rounds: dict) -> dict:
        """Per-layer figures for one benchmark cycle: each phase's totals
        divided by the rounds that phase ran, summed over phases."""
        cycle: dict = defaultdict(float)
        for phase, totals in self._totals.items():
            n = rounds[phase]
            for key, value in totals.items():
                cycle[key] += value / n
        out = {}
        for name, _, _ in PER_LAYER:
            if name == "autodiff.op_calls":
                out[name] = sum(cycle[f"autodiff.{op}_calls"] for op in AUTODIFF_OPS)
            elif name == "model.pad_fraction":
                slots = cycle["model.token_slots"]
                out[name] = cycle["model.pad_slots"] / slots if slots else 0.0
            elif name.startswith("trace."):
                continue
            else:
                out[name] = cycle[name]
        return out


def assert_untraced() -> None:
    """Raise if any rsvp module or class still holds a tracing wrapper."""
    for m in _rsvp_modules():
        for name, value in vars(m).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{m.__name__}.{name} is still wrapped")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        raise RuntimeError(f"{m.__name__}.{name}.{attr} is still wrapped")
