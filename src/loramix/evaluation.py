"""Scenario classification, metrics, judges, and the evaluation driver.

`evaluate` makes one pass over the records and hands each, once it is
retrieved for and answered, to its mode's scorer. Open-book scoring
classifies the record by what retrieval returned relative to its golden
chunk: golden-only and mixed retrieval go to `score_context` (Faith and
Filter), wrong-context responses to the refusal rate. Records whose
retrieval is empty are answered from the closed-book prompt and count
toward recall accuracy only, which is averaged over every response in
the mode, refusals included. Cross mode scores question recovery and
fluency on both responses of each record.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from . import prompts
from .curation import (GeneratorClient, HttpChatClient, _between,
                       ask_generator)
from .errors import ConfigError, EvaluationError, FormatError, from_fields
from .numerics import cosine_similarity
from .retrieval import CorpusIndex, Embedder, RetrievalConfig

REFUSAL_PHRASES = ("i don't know", "i do not know")


class Scenario(Enum):
    GOLDEN_CONTEXT = "golden_context"
    MIXED_CONTEXT = "mixed_context"
    IRRELEVANT_CONTEXT = "irrelevant_context"
    EMPTY_CONTEXT = "empty_context"


def classify_scenario(retrieved: Sequence[str], golden_id: str) -> Scenario:
    """Partition retrieval outcomes relative to the record's golden chunk."""
    ids = list(retrieved)
    if not ids:
        return Scenario.EMPTY_CONTEXT
    if golden_id not in ids:
        return Scenario.IRRELEVANT_CONTEXT
    if len(ids) == 1:
        return Scenario.GOLDEN_CONTEXT
    return Scenario.MIXED_CONTEXT


def _normalize(text: str) -> str:
    cleaned = "".join(c for c in text.lower() if c not in string.punctuation)
    return " ".join(cleaned.split())


def detect_refusal(response: str) -> bool:
    """True when the normalized response starts with a refusal phrase."""
    norm = _normalize(response)
    return any(norm.startswith(_normalize(p)) for p in REFUSAL_PHRASES)


def compute_rr(responses: Iterable[str]) -> float | None:
    """Fraction of responses that refuse; None when there are no responses."""
    responses = list(responses)
    if not responses:
        return None
    refused = sum(1 for r in responses if detect_refusal(r))
    return refused / len(responses)


def statement_f1(answer: str, truth: str) -> tuple[int, int, int, float]:
    """Token-multiset overlap F1 between an answer and the reference.

    Tokens are lowercased with punctuation stripped. Returns
    (tp, fp, fn, f1); two answers that both normalize to nothing count
    as a perfect match.
    """
    a = Counter(_normalize(answer).split())
    t = Counter(_normalize(truth).split())
    tp = sum((a & t).values())
    fp = sum((a - t).values())
    fn = sum((t - a).values())
    if tp + fp + fn == 0:
        return 0, 0, 0, 1.0
    return tp, fp, fn, tp / (tp + 0.5 * (fp + fn))


@dataclass(frozen=True)
class RaWeights:
    token_weight: float = 1.0
    embedding_weight: float = 1.0

    def __post_init__(self):
        if self.token_weight < 0 or self.embedding_weight < 0:
            raise ConfigError("metric weights must be non-negative")
        if self.token_weight + self.embedding_weight == 0:
            raise ConfigError("at least one metric weight must be positive")


# Recall-accuracy weights of every scorer and of `experiments.task_recall`.
RA_WEIGHTS = RaWeights()


def compute_ra(answer: str, truth: str, weights: RaWeights,
               embedder: Embedder) -> float:
    """Recall accuracy: weighted mean of token F1 and embedding cosine.

    The cosine term is clamped into [0, 1] before weighting, so the
    result always lies in [0, 1]. An answer that normalizes to nothing
    scores zero on the embedding term rather than erroring.
    """
    _, _, _, f1 = statement_f1(answer, truth)
    if answer.strip() and truth.strip():
        cos = cosine_similarity(embedder.embed(answer), embedder.embed(truth))
    else:
        cos = 0.0
    cos = min(max(cos, 0.0), 1.0)
    w = weights
    return (f1 * w.token_weight + cos * w.embedding_weight) / (
        w.token_weight + w.embedding_weight)


def compute_qr(question: str, response: str, context: str | None,
               gen: GeneratorClient, embedder: Embedder, m: int = 1) -> float:
    """Question recall: how close questions regenerated from the response
    come to the original question.

    The regeneration reuses the question template with the response (and
    retrieved context, when present) standing in for the source passage.
    Each of the m regenerated questions is compared to the original by
    embedding cosine, clamped into [0, 1], and averaged.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    passage = response if context is None else f"{response}\n{context}"
    sims = []
    for _ in range(m):
        regen = ask_generator(gen, prompts.question_prompt(passage),
                              "question")
        if not regen or not question.strip():
            sims.append(0.0)
            continue
        cos = cosine_similarity(embedder.embed(question), embedder.embed(regen))
        sims.append(min(max(cos, 0.0), 1.0))
    return float(np.mean(sims))


# -- judges --------------------------------------------------------------------


class JudgeClient(Protocol):
    def score(self, prompt: str) -> float: ...


_FLOAT_RE = re.compile(r"-?\d+(?:\.\d+)?")


class HttpJudgeClient:
    """Judge over the chat-completion wire format.

    The scoring prompt goes out as a single user message. The reply must
    hold exactly one number, inside [0, 1], and that number is the
    score; any other reply is a FormatError carrying the reply.
    """

    def __init__(self, endpoint: str, model: str = "default",
                 api_key_env: str | None = None, timeout: float = 30.0):
        self._chat = HttpChatClient(endpoint, model=model,
                                    api_key_env=api_key_env, timeout=timeout)

    def score(self, prompt: str) -> float:
        reply = self._chat.complete([{"role": "user", "content": prompt}])
        numbers = _FLOAT_RE.findall(reply)
        if len(numbers) != 1 or not 0.0 <= float(numbers[0]) <= 1.0:
            raise FormatError("judge reply must hold one number in [0, 1], "
                              f"found {', '.join(numbers) or 'no number'}",
                              payload=reply)
        return float(numbers[0])


class StubJudge:
    """Deterministic offline judge.

    Consistency and filtering prompts score 1.0 when the response
    verbatim-contains a full sentence of the reference context, or is
    itself contained in that context; otherwise 0.0. Fluency prompts
    score a length/punctuation heuristic: 0.4 for an uppercase start,
    0.3 for terminal punctuation, 0.3 scaled by word count up to eight
    words.
    """

    def score(self, prompt: str) -> float:
        if "Evaluate the fluency" in prompt:
            return self._fluency(_between(prompt, "Text: ",
                                          "\n\\n\nGive your score below:"))
        if "### CONTEXT" in prompt and "### RESPONSE" in prompt:
            if "### DISTRACTORS" in prompt:
                context = _between(prompt, "### CONTEXT\n", "\n### DISTRACTORS")
            else:
                context = _between(prompt, "### CONTEXT\n", "\n### RESPONSE")
            response = _between(prompt, "### RESPONSE\n",
                                "\nReply with a single number")
            return self._containment(context, response)
        raise FormatError("stub judge got an unrecognized prompt",
                          payload=prompt)

    @staticmethod
    def _containment(context: str, response: str) -> float:
        resp = response.strip()
        if not resp:
            return 0.0
        sentences = [s.strip() for s in re.split(r"(?<=[.!?])\s+", context)
                     if s.strip()]
        if any(s in resp for s in sentences):
            return 1.0
        if resp in context:
            return 1.0
        return 0.0

    @staticmethod
    def _fluency(text: str) -> float:
        text = text.strip()
        if not text:
            return 0.0
        score = 0.0
        if text[0].isupper():
            score += 0.4
        if text[-1] in ".!?":
            score += 0.3
        score += 0.3 * min(1.0, len(text.split()) / 8.0)
        return min(score, 1.0)


def compute_fl(response: str, judges: Sequence[JudgeClient],
               on_failure: Callable[[Exception], None] | None = None) -> float:
    """Mean fluency score across judges, each prompted with the fluency
    template.

    Individual judge failures are skipped (and reported through
    on_failure when given); if every judge fails the metric cannot be
    produced at all.
    """
    if not judges:
        raise ValueError("need at least one judge")
    prompt = prompts.fluency_prompt(response)
    scores = []
    errors = []
    for judge in judges:
        try:
            scores.append(min(max(judge.score(prompt), 0.0), 1.0))
        except Exception as exc:  # noqa: BLE001 - judge outage is data here
            errors.append(exc)
            if on_failure is not None:
                on_failure(exc)
    if not scores:
        raise EvaluationError(f"all {len(judges)} judges failed: {errors[-1]}")
    return float(np.mean(scores))


def score_context(record, judge: JudgeClient, chunks: "ChunkResolver"
                  ) -> float:
    """Judge score of the open response against the retrieved context.

    A golden-context record gets the consistency (Faith) prompt with the
    golden chunk; a mixed-context record gets the filtering (Filter)
    prompt with the golden chunk and the other hits as distractors. Other
    scenarios have no context to score against.
    """
    scenario = classify_scenario(record.retrieved, record.context_id)
    if scenario not in (Scenario.GOLDEN_CONTEXT, Scenario.MIXED_CONTEXT):
        raise ValueError(f"context scoring needs the golden chunk among the "
                         f"hits, got {scenario.value}")
    if record.open_response is None:
        raise ValueError("record has no open response to score")
    golden = chunks(record.context_id)
    if scenario is Scenario.GOLDEN_CONTEXT:
        prompt = prompts.faith_prompt(golden, record.open_response)
    else:
        distractors = "\n\n".join(chunks(cid) for cid in record.retrieved
                                  if cid != record.context_id)
        prompt = prompts.filter_prompt(golden, distractors,
                                       record.open_response)
    return min(max(judge.score(prompt), 0.0), 1.0)


ChunkResolver = Callable[[str], str]


# -- evaluation driver ---------------------------------------------------------


class GenerativeModel(Protocol):
    def generate_text(self, prompt: str, max_new_tokens: int = 48) -> str: ...


@dataclass
class EvalConfig:
    embedder: Embedder
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    index: CorpusIndex | None = None
    judges: Sequence[JudgeClient] = ()
    generator: GeneratorClient | None = None
    qr_samples: int = 1
    max_new_tokens: int = 48
    use_stored_retrieval: bool = False


@dataclass
class EvalReport:
    mode: str
    record_count: int
    scenario_counts: dict[str, int]
    faith: float | None = None
    filter: float | None = None
    rr: float | None = None
    ra_open: float | None = None
    ra_closed: float | None = None
    qr: float | None = None
    fl: float | None = None
    partial: bool = False
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Inverse of `to_json`; every field must be present, no others."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"report is not valid JSON: {exc}",
                              payload=text) from exc
        return from_fields(cls, data, "report", payload=text)

    def to_table(self) -> str:
        """Aligned text table; absent metrics render as a dash."""
        columns = [("Faith", self.faith), ("Filter", self.filter),
                   ("RR", self.rr), ("RA-open", self.ra_open),
                   ("RA-closed", self.ra_closed), ("QR", self.qr),
                   ("FL", self.fl)]
        header = []
        values = []
        for name, value in columns:
            cell = "-" if value is None else f"{value:.4f}"
            width = max(len(name), len(cell))
            header.append(name.rjust(width))
            values.append(cell.rjust(width))
        lines = [
            f"mode: {self.mode}  records: {self.record_count}",
            "scenarios: " + json.dumps(self.scenario_counts, sort_keys=True),
            "  ".join(header),
            "  ".join(values),
        ]
        if self.partial:
            lines.append(f"partial: {len(self.failures)} failure(s)")
        return "\n".join(lines)


def _mean_or_none(values: list[float]) -> float | None:
    if not values:
        return None
    return float(np.mean(values))


# A scorer gets one record whose responses are generated, its scenario
# and joined context (both None in closed mode), the config, the
# per-metric lists to append to, and the record's failure callback.
Scores = dict[str, list]
Fail = Callable[[Exception], None]


def _score_open(record, scenario: Scenario | None, context: str | None,
                cfg: EvalConfig, scores: Scores, fail: Fail) -> None:
    scores["ra_open"].append(compute_ra(record.open_response,
                                        record.ground_truth, RA_WEIGHTS,
                                        cfg.embedder))
    if scenario is Scenario.IRRELEVANT_CONTEXT:
        scores["rr"].append(record.open_response)
    elif scenario in (Scenario.GOLDEN_CONTEXT,
                      Scenario.MIXED_CONTEXT) and cfg.judges:
        try:
            value = score_context(record, cfg.judges[0], cfg.index.text_of)
        except (EvaluationError, ConfigError, FormatError,
                RuntimeError) as exc:
            fail(exc)
        else:
            scores["faith" if scenario is Scenario.GOLDEN_CONTEXT
                   else "filter"].append(value)


def _score_closed(record, scenario: Scenario | None, context: str | None,
                  cfg: EvalConfig, scores: Scores, fail: Fail) -> None:
    scores["ra_closed"].append(compute_ra(record.closed_response,
                                          record.ground_truth, RA_WEIGHTS,
                                          cfg.embedder))


def _score_cross(record, scenario: Scenario | None, context: str | None,
                 cfg: EvalConfig, scores: Scores, fail: Fail) -> None:
    for response, resp_context in ((record.open_response, context or None),
                                   (record.closed_response, None)):
        try:
            scores["qr"].append(compute_qr(record.q, response, resp_context,
                                           cfg.generator, cfg.embedder,
                                           m=cfg.qr_samples))
        except (EvaluationError, FormatError, RuntimeError) as exc:
            fail(exc)
        try:
            scores["fl"].append(compute_fl(response, cfg.judges,
                                           on_failure=fail))
        except EvaluationError as exc:
            fail(exc)


_SCORERS = {"open": _score_open, "closed": _score_closed,
            "cross": _score_cross}


def evaluate(records: list, model: GenerativeModel, mode: str,
             cfg: EvalConfig) -> EvalReport:
    """Run one evaluation mode over the records.

    Modes: "open" retrieves context and reports Faith/Filter/RR/RA;
    "closed" prompts without context and reports RA only; "cross" runs
    both response paths and reports QR and FL averaged over them.
    Each record is retrieved for, answered and scored in one pass, and
    its response fields are populated in place. Judge or generator
    failures mark the report partial instead of aborting; a stored
    retrieval naming a chunk the index lacks raises ValueError.
    """
    if mode not in _SCORERS:
        raise ValueError(f"unknown mode {mode!r}")
    if not records:
        raise ValueError("cannot evaluate an empty record list")
    if mode != "closed" and cfg.index is None:
        raise ConfigError(f"mode {mode!r} requires a corpus index")
    if mode == "cross" and cfg.generator is None:
        raise ConfigError("cross mode requires a question generator")
    if mode == "cross" and not cfg.judges:
        raise ConfigError("cross mode requires at least one judge")

    report = EvalReport(mode=mode, record_count=len(records),
                        scenario_counts={} if mode == "closed" else
                        {s.value: 0 for s in Scenario})
    scores: Scores = {name: [] for name in ("faith", "filter", "rr",
                                            "ra_open", "ra_closed", "qr",
                                            "fl")}
    for i, record in enumerate(records):
        def fail(exc: Exception, i: int = i) -> None:
            report.partial = True
            report.failures.append(f"record {i}: {exc}")

        scenario = context = None
        if mode != "closed":
            if not cfg.use_stored_retrieval:
                record.retrieved = [h.chunk_id for h in cfg.index.retrieve(
                    record.q, cfg.retrieval, cfg.embedder)]
            elif missing := [cid for cid in record.retrieved
                             if cid not in cfg.index.chunks]:
                raise ValueError(f"record {i}: stored retrieval names chunk(s) "
                                 f"{missing} that the index lacks")
            scenario = classify_scenario(record.retrieved, record.context_id)
            report.scenario_counts[scenario.value] += 1
            context = "\n\n".join(cfg.index.text_of(cid)
                                  for cid in record.retrieved)
            prompt = (prompts.closed_book_prompt(record.q)
                      if scenario is Scenario.EMPTY_CONTEXT
                      else prompts.open_book_prompt(context, record.q))
            record.open_response = model.generate_text(
                prompt, max_new_tokens=cfg.max_new_tokens)
        if mode != "open":
            record.closed_response = model.generate_text(
                prompts.closed_book_prompt(record.q),
                max_new_tokens=cfg.max_new_tokens)
        _SCORERS[mode](record, scenario, context, cfg, scores, fail)

    report.rr = compute_rr(scores.pop("rr"))
    for name, values in scores.items():
        setattr(report, name, _mean_or_none(values))
    return report
