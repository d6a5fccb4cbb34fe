"""Dataset curation: chunk a corpus, generate QA pairs, attach retrieval.

Each chunk with visible text yields exactly one record: a generated
question, a generated ground-truth answer, and the chunk ids retrieved
for the question at curation time. Records serialize as JSONL with a
fixed six-field schema plus the source chunk id, load only when a row
has exactly those keys, and a seeded shuffle splits them 80/20 into
train and test files.

Generation goes through a chat-completion client. The shipped stub
client answers the same templates a live service would see, with fixed
rules: the question is an interrogative rewrite of the chunk's first
sentence, the ground truth is the first sentence itself. Those rules are
part of the stub's contract and are pinned by tests.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from . import prompts
from .errors import ConfigError, FormatError, from_fields
from .retrieval import (CorpusIndex, Embedder, RetrievalConfig,
                        build_corpus_index, post_with_retries)


@dataclass
class QaRecord:
    q: str
    context_id: str
    retrieved: list[str]
    ground_truth: str
    domain_tag: str
    open_response: str | None = None
    closed_response: str | None = None

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "QaRecord":
        """Inverse of `to_json`; every field must be present, no others."""
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad record row: {exc}", payload=line) from exc
        return from_fields(cls, row, "record row", payload=line)


class GeneratorClient(Protocol):
    def complete(self, messages: list[dict[str, str]]) -> str: ...


class HttpChatClient:
    """Chat-completion wire client.

    Sends {"model": ..., "messages": [...]} and returns the first
    choice's message content. Credentials are read from the environment
    variable named in the constructor at call time and are never written
    anywhere.
    """

    def __init__(self, endpoint: str, model: str = "default",
                 api_key_env: str | None = None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout

    def complete(self, messages: list[dict[str, str]]) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise ConfigError(
                    f"environment variable {self.api_key_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        body = json.dumps({"model": self.model,
                           "messages": messages}).encode("utf-8")
        raw = post_with_retries(self.endpoint, body, self.timeout, headers)
        try:
            payload = json.loads(raw)
            return payload["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise FormatError(f"bad chat response: {exc}", payload=raw) from exc


_SENTENCE_END = re.compile(r"[.!?]")


def first_sentence(text: str) -> str:
    """Text up to and including the first sentence terminator."""
    stripped = text.strip()
    m = _SENTENCE_END.search(stripped)
    if m:
        return stripped[: m.end()]
    return stripped


class StubGenerator:
    """Deterministic offline stand-in for the chat generation service.

    It recognizes which template it received from the template's own
    wording and answers in the same JSON shape a live model is asked
    for. Rules, fixed by contract:

    * question: take the chunk's first sentence; for a "<Det> <noun>
      <verb>s ..." opening produce "What does <det> <noun> <verb>?"
      (verb with one trailing "s" stripped); anything else falls back to
      quoting the sentence.
    * ground truth: the first sentence of the chunk.
    """

    def complete(self, messages: list[dict[str, str]]) -> str:
        content = messages[-1]["content"]
        if "create a standard" in content:
            context = _between(content, "Context: ", "\nQuestion:")
            return json.dumps({"ground truth": first_sentence(context)})
        if "create a question" in content:
            context = _between(content, "Context: ",
                               "\nQuestion: a question about the context.")
            return json.dumps({"question": self._interrogative(context)})
        raise FormatError("stub generator got an unrecognized template",
                          payload=content)

    @staticmethod
    def _interrogative(context: str) -> str:
        sentence = first_sentence(context).rstrip(".!?")
        words = sentence.split()
        if len(words) >= 3:
            verb = words[2]
            stem = verb[:-1] if verb.endswith("s") else verb
            return f"What does {words[0].lower()} {words[1]} {stem}?"
        return f'What is meant by "{sentence}"?'


def _between(text: str, start: str, end: str) -> str:
    i = text.find(start)
    j = text.find(end, i)
    if i < 0 or j < 0:
        raise FormatError("template markers not found", payload=text)
    return text[i + len(start):j]


def _parse_json_object(raw: str) -> dict:
    try:
        obj = json.loads(raw.strip())
    except json.JSONDecodeError:
        m = re.search(r"\{.*\}", raw, re.DOTALL)
        if not m:
            raise FormatError("generator did not return a JSON object",
                              payload=raw) from None
        try:
            obj = json.loads(m.group(0))
        except json.JSONDecodeError as exc:
            raise FormatError(f"generator returned unparseable JSON: {exc}",
                              payload=raw) from exc
    if not isinstance(obj, dict):
        raise FormatError("generator returned JSON that is not an object",
                          payload=raw)
    return obj


def ask_generator(gen: GeneratorClient, prompt: str, key: str) -> str:
    """The stripped string the generator returns under `key` for one user
    prompt; FormatError when the reply is not a JSON object holding it."""
    raw = gen.complete([{"role": "user", "content": prompt}])
    obj = _parse_json_object(raw)
    if key not in obj:
        raise FormatError(f'generator response lacks the "{key}" key',
                          payload=raw)
    return str(obj[key]).strip()


def generate_question(chunk_text: str, gen: GeneratorClient) -> str:
    """One specific question for a chunk, via the question template."""
    question = ask_generator(gen, prompts.question_prompt(chunk_text),
                             "question")
    if not question:
        raise ValueError("generator produced an empty question")
    return question


def generate_ground_truth(chunk_text: str, question: str,
                          gen: GeneratorClient) -> str:
    """Reference answer for (chunk, question), via the answer template."""
    truth = ask_generator(
        gen, prompts.ground_truth_prompt(chunk_text, question), "ground truth")
    if not truth:
        raise ValueError("generator produced an empty ground truth")
    return truth


@dataclass
class CurationResult:
    train: list[QaRecord]
    test: list[QaRecord]
    index: CorpusIndex

    @property
    def records(self) -> list[QaRecord]:
        return self.train + self.test


def curate(docs: Iterable[tuple[str, str, str]], gen: GeneratorClient,
           retrieval_cfg: RetrievalConfig, embedder: Embedder, seed: int,
           train_frac: float = 0.8) -> CurationResult:
    """Build records for a corpus of (doc id, text, domain tag) triples.

    Records are assembled in chunk-id order. The split shuffles them
    with a seeded permutation and puts the first floor(train_frac * n)
    in train.
    """
    if not 0.0 <= train_frac <= 1.0:
        raise ConfigError(f"train_frac must lie in [0, 1], got {train_frac}")
    doc_list = list(docs)
    index = build_corpus_index(((d, t) for d, t, _ in doc_list),
                               retrieval_cfg, embedder)
    domain_of = {doc_id: tag for doc_id, _, tag in doc_list}
    # The splitter may emit whitespace-only chunks to keep documents
    # exactly reconstructable. They stay in the index but there is
    # nothing to ask about them, so no record is generated.
    chunk_ids = sorted(cid for cid, chunk in index.chunks.items()
                       if chunk.text.strip())

    def build_record(chunk_id: str) -> QaRecord:
        chunk = index.chunks[chunk_id]
        question = generate_question(chunk.text, gen)
        truth = generate_ground_truth(chunk.text, question, gen)
        hits = index.retrieve(question, retrieval_cfg, embedder)
        return QaRecord(
            q=question,
            context_id=chunk_id,
            retrieved=[h.chunk_id for h in hits],
            ground_truth=truth,
            domain_tag=domain_of[chunk.source_doc],
        )

    records = [build_record(cid) for cid in chunk_ids]
    perm = np.random.default_rng(seed).permutation(len(records))
    shuffled = [records[i] for i in perm]
    n_train = int(len(shuffled) * train_frac)
    by_id = lambda r: r.context_id
    return CurationResult(train=sorted(shuffled[:n_train], key=by_id),
                          test=sorted(shuffled[n_train:], key=by_id),
                          index=index)


def save_records(path: str | Path, records: list[QaRecord]) -> None:
    lines = [r.to_json() for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_records(path: str | Path) -> list[QaRecord]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln]
    return [QaRecord.from_json(ln) for ln in lines]
