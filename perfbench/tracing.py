"""Spans around calls into the program's public functions.

The program is not changed: tracing replaces module attributes and class
methods with timing wrappers for the length of a traced round, and puts
the originals back afterwards. A function that other loramix modules
imported by name is replaced in each of them, so calls through either
name are seen. Spans (name, start, end, parent, count) stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, count]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False   # spans are kept only while this is set

    # -- installing wrappers ----------------------------------------------

    def _wrapper(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result
        return traced

    def method(self, cls, attr: str, name: str, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, count))
        else:
            wrapped = self._wrapper(raw, name, count)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def function(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, count)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("loramix"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "count": c}
                for n, s, e, p, c in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from loramix import (adapter, baseline, cli, curation, evaluation, model,
                         numerics, prompts, retrieval, training)

    rows = lambda args, result: int(args[1].shape[0])
    tracer.method(adapter.MixtureFfn, "forward_rows", "adapter.forward_rows",
                  rows)
    tracer.method(adapter.MixtureFfn, "backward_rows", "adapter.backward_rows")
    tracer.method(baseline.SingleLoraFfn, "forward_rows",
                  "adapter.forward_rows", rows)
    tracer.method(baseline.SingleLoraFfn, "backward_rows",
                  "adapter.backward_rows")
    tracer.method(model.ToyCausalLm, "forward", "model.forward",
                  lambda args, result: len(args[1]))
    tracer.method(model.ToyCausalLm, "backward", "model.backward")
    tracer.method(model.ToyCausalLm, "generate", "model.generate",
                  lambda args, result: len(result))
    tracer.function(training, "train", "training.train")
    tracer.function(
        training, "loss_and_grads", "training.loss_and_grads",
        lambda args, result: (sum(len(ids) for ids, _ in args[1]),
                              sum(int(mask[1:].sum()) for _, mask in args[1])))
    tracer.function(numerics, "adam_step", "numerics.adam_step")
    tracer.method(retrieval.TrigramEmbedder, "embed", "retrieval.embed")
    tracer.function(retrieval, "retrieve", "retrieval.retrieve",
                    lambda args, result: len(result))
    tracer.method(retrieval.VectorIndex, "matrix", "retrieval.matrix")
    tracer.function(retrieval, "split_recursive", "retrieval.split")
    tracer.method(retrieval.CorpusIndex, "save", "retrieval.index_save")
    tracer.method(retrieval.CorpusIndex, "load", "retrieval.index_load")
    tracer.function(cli, "cmd_index", "cli.index")
    tracer.function(cli, "cmd_curate", "cli.curate")
    tracer.method(curation.StubGenerator, "complete", "curation.generator")
    tracer.function(evaluation, "evaluate", "evaluation.evaluate")
    tracer.function(evaluation, "compute_ra", "evaluation.compute_ra")
    tracer.method(evaluation.StubJudge, "score", "evaluation.judge")
    prompt_bytes = lambda args, result: len(result.encode("utf-8"))
    tracer.function(prompts, "open_book_prompt", "prompts.open_book",
                    prompt_bytes)
    tracer.function(prompts, "closed_book_prompt", "prompts.closed_book",
                    prompt_bytes)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(spans: list[list], offset: int = 0) -> dict[str, float]:
    """Per-layer figures of one traced round's spans, a slice of the
    tracer's list that starts at index `offset`."""
    spans = [[n, s, e, p - offset if p >= 0 else -1, c]
             for n, s, e, p, c in spans]
    busy = defaultdict(float)
    calls = defaultdict(int)
    child_time = [0.0] * len(spans)
    for n, s, e, parent, _ in spans:
        busy[n] += e - s
        calls[n] += 1
        if parent >= 0:
            child_time[parent] += e - s
    self_time = defaultdict(float)
    for i, (n, s, e, _, _) in enumerate(spans):
        self_time[n] += (e - s) - child_time[i]

    def under(i: int, name: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def counted(name: str) -> list:
        return [c for n, _, _, _, c in spans if n == name]

    gen_tokens = sum(counted("model.generate"))
    gen_positions = sum(spans[i][4] for i in range(len(spans))
                        if spans[i][0] == "model.forward"
                        and under(i, "model.generate"))
    lag = counted("training.loss_and_grads")
    steps_ms = []
    train_spans = [i for i, sp in enumerate(spans)
                   if sp[0] == "training.train"]
    for t in train_spans:
        starts = [spans[i][1] for i in range(t + 1, len(spans))
                  if spans[i][0] == "training.loss_and_grads"
                  and spans[i][3] == t]
        ends = starts[1:] + [spans[t][2]]
        steps_ms += [_ms(b - a) for a, b in zip(starts, ends)]
    hits = counted("retrieval.retrieve")
    prompt_bytes = sum(spans[i][4] for i in range(len(spans))
                       if spans[i][0] in ("prompts.open_book",
                                          "prompts.closed_book")
                       and under(i, "evaluation.evaluate"))
    return {
        "adapter.forward_rows.ms": _ms(busy["adapter.forward_rows"]),
        "adapter.backward_rows.ms": _ms(busy["adapter.backward_rows"]),
        "adapter.rows": sum(counted("adapter.forward_rows")),
        "model.forward.calls": calls["model.forward"],
        "model.forward.positions": sum(counted("model.forward")),
        "model.forward.self_ms": _ms(self_time["model.forward"]),
        "model.backward.self_ms": _ms(self_time["model.backward"]),
        "model.generate.calls": calls["model.generate"],
        "model.generate.ms": _ms(busy["model.generate"]),
        "model.generate.tokens": gen_tokens,
        "model.generate.positions_per_token":
            gen_positions / gen_tokens if gen_tokens else 0.0,
        "training.loss_and_grads.ms": _ms(busy["training.loss_and_grads"]),
        "training.step.p50_ms": statistics.median(steps_ms) if steps_ms else 0.0,
        "training.steps": len(lag),
        "training.tokens": sum(c[0] for c in lag),
        "training.supervised_tokens": sum(c[1] for c in lag),
        "numerics.adam_step.calls": calls["numerics.adam_step"],
        "numerics.adam_step.ms": _ms(busy["numerics.adam_step"]),
        "retrieval.embed.calls": calls["retrieval.embed"],
        "retrieval.embed.ms": _ms(busy["retrieval.embed"]),
        "retrieval.retrieve.calls": calls["retrieval.retrieve"],
        "retrieval.retrieve.ms": _ms(busy["retrieval.retrieve"]),
        "retrieval.matrix.calls": calls["retrieval.matrix"],
        "retrieval.matrix.ms": _ms(busy["retrieval.matrix"]),
        "retrieval.hits_per_query": sum(hits) / len(hits) if hits else 0.0,
        "retrieval.split.ms": _ms(busy["retrieval.split"]),
        "retrieval.index_save.ms": _ms(busy["retrieval.index_save"]),
        "retrieval.index_load.ms": _ms(busy["retrieval.index_load"]),
        "cli.index.ms": _ms(busy["cli.index"]),
        "curation.generator.calls": calls["curation.generator"],
        "curation.generator.ms": _ms(busy["curation.generator"]),
        "cli.curate.ms": _ms(busy["cli.curate"]),
        "evaluation.evaluate.ms": _ms(busy["evaluation.evaluate"]),
        "evaluation.compute_ra.calls": calls["evaluation.compute_ra"],
        "evaluation.compute_ra.ms": _ms(busy["evaluation.compute_ra"]),
        "evaluation.judge.calls": calls["evaluation.judge"],
        "evaluation.judge.ms": _ms(busy["evaluation.judge"]),
        "evaluation.prompt_bytes": prompt_bytes,
    }
