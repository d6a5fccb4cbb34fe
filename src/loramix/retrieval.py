"""Chunking, embedding, and threshold retrieval.

A query retrieves every indexed chunk whose cosine similarity with the
query embedding strictly exceeds the threshold; there is no top-k cap.
The built-in embedder hashes character trigrams into a fixed number of
buckets and L2-normalizes the counts, which is deterministic, offline,
and good enough to exercise the pipeline end to end. A remote embedder
speaking JSON over HTTP can be swapped in for real runs.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .errors import (ClientError, ConfigError, FormatError, ShapeError,
                     from_fields)

Array = np.ndarray

# Split points, coarsest first; "" is the forced character cut.
SEPARATORS = ("\n\n", "\n", " ", "")
UNIT_NORM_TOL = 1e-9


@dataclass
class RetrievalConfig:
    theta: float = 0.87
    target_size: int = 1000
    overlap: int = 100

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [-1, 1], got {self.theta}")
        if self.overlap < 0 or self.target_size <= self.overlap:
            raise ConfigError(
                f"need target_size > overlap >= 0, got target_size="
                f"{self.target_size}, overlap={self.overlap}"
            )


@dataclass
class Chunk:
    chunk_id: str
    text: str
    source_doc: str
    # Number of leading characters duplicated from the previous chunk;
    # lets the original document be reconstructed exactly.
    lead: int = 0


def split_recursive(text: str, source_doc: str, cfg: RetrievalConfig
                    ) -> list[Chunk]:
    """Separator-respecting recursive split with exact reconstruction.

    Pieces are cut on the earliest separator present, merged greedily up
    to the core budget (target_size minus overlap), and oversized pieces
    recurse on later separators down to forced character cuts. Each chunk
    after the first is prefixed with the previous core's trailing
    `overlap` characters, so emitted chunks never exceed target_size and
    dropping each chunk's `lead` prefix re-concatenates to the source.
    """
    if not text:
        return []
    core_budget = cfg.target_size - cfg.overlap
    cores = _split_cores(text, SEPARATORS, core_budget)
    chunks: list[Chunk] = []
    prev_core = ""
    for i, core in enumerate(cores):
        lead_text = prev_core[-cfg.overlap:] if (cfg.overlap and i > 0) else ""
        chunks.append(Chunk(
            chunk_id=f"{source_doc}:{i:04d}",
            text=lead_text + core,
            source_doc=source_doc,
            lead=len(lead_text),
        ))
        prev_core = core
    return chunks


def _split_cores(text: str, separators: tuple[str, ...], budget: int
                 ) -> list[str]:
    if len(text) <= budget:
        return [text]
    sep = separators[0]
    rest = separators[1:]
    if sep == "":
        return [text[i:i + budget] for i in range(0, len(text), budget)]
    parts = text.split(sep)
    if len(parts) == 1:
        return _split_cores(text, rest, budget)
    # Keep each separator attached to the piece it terminates.
    pieces = [p + sep for p in parts[:-1]]
    if parts[-1]:
        pieces.append(parts[-1])
    out: list[str] = []
    buf = ""
    for piece in pieces:
        if len(piece) > budget:
            if buf:
                out.append(buf)
                buf = ""
            out.extend(_split_cores(piece, rest, budget))
        elif len(buf) + len(piece) <= budget:
            buf += piece
        else:
            out.append(buf)
            buf = piece
    if buf:
        out.append(buf)
    return out


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> Array: ...


class TrigramEmbedder:
    """Hashed character-trigram counts, L2-normalized.

    Texts shorter than three characters hash as a single gram. Hashing is
    CRC32 modulo the dimension, so the mapping is stable across runs and
    machines.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        self.dim = dim

    def bucket(self, gram: str) -> int:
        return zlib.crc32(gram.encode("utf-8")) % self.dim

    def grams(self, text: str) -> list[str]:
        if len(text) < 3:
            return [text]
        return [text[i:i + 3] for i in range(len(text) - 2)]

    def embed(self, text: str) -> Array:
        if not text:
            raise ValueError("cannot embed empty text")
        counts = np.zeros(self.dim)
        for gram in self.grams(text):
            counts[self.bucket(gram)] += 1.0
        return counts / np.linalg.norm(counts)


class HttpEmbedderClient:
    """Remote embedder: POST {"text": ...} -> {"embedding": [...]}.

    Transport failures retry up to HTTP_RETRIES times and then surface as
    ClientError; malformed bodies surface as FormatError with the raw
    payload attached.
    """

    def __init__(self, endpoint: str, dim: int, timeout: float = 10.0):
        self.endpoint = endpoint
        self.dim = dim
        self.timeout = timeout

    def embed(self, text: str) -> Array:
        if not text:
            raise ValueError("cannot embed empty text")
        body = json.dumps({"text": text}).encode("utf-8")
        raw = post_with_retries(self.endpoint, body, self.timeout,
                                headers={"Content-Type": "application/json"})
        try:
            payload = json.loads(raw)
            vec = np.asarray(payload["embedding"], dtype=np.float64)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad embedder response: {exc}",
                              payload=raw) from exc
        if vec.ndim != 1 or vec.shape[0] != self.dim:
            raise FormatError(
                f"embedder returned shape {vec.shape}, expected ({self.dim},)",
                payload=raw)
        return vec


HTTP_RETRIES = 2


def post_with_retries(url: str, body: bytes, timeout: float,
                      headers: dict[str, str]) -> str:
    """POST `body` and return the decoded response body.

    Transport failures are retried; after `HTTP_RETRIES + 1` failed
    attempts the last one surfaces as ClientError.
    """
    last: Exception | None = None
    for _ in range(HTTP_RETRIES + 1):
        req = urllib.request.Request(url, data=body, headers=headers,
                                     method="POST")
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.read().decode("utf-8")
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            last = exc
    raise ClientError(f"POST {url} failed after {HTTP_RETRIES + 1} attempts: "
                      f"{last}")


class VectorIndex:
    """Flat store of (chunk id, unit-norm embedding) pairs."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("index dim must be >= 1")
        self.dim = dim
        self.ids: list[str] = []
        self._rows: list[Array] = []
        self._matrix: Array | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, chunk_id: str, embedding: Array) -> None:
        vec = np.asarray(embedding, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] != self.dim:
            raise ShapeError(
                f"embedding has shape {vec.shape}, index dim is {self.dim}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a NaN fails too
            raise ValueError(f"embedding for {chunk_id!r} is not unit-norm "
                             f"(|v|={norm})")
        self.ids.append(chunk_id)
        self._rows.append(vec)
        self._matrix = None

    def matrix(self) -> Array:
        """All rows stacked in insertion order; kept until the next `add`."""
        if self._matrix is None:
            self._matrix = (np.stack(self._rows) if self._rows
                            else np.zeros((0, self.dim)))
            self._matrix.setflags(write=False)
        return self._matrix


@dataclass
class Retrieved:
    chunk_id: str
    score: float


def retrieve(query: str, index: VectorIndex, cfg: RetrievalConfig,
             embedder: Embedder) -> list[Retrieved]:
    """All chunks with cosine similarity strictly above cfg.theta.

    Results are sorted by descending score, ties by chunk id. Since every
    stored embedding is unit-norm, cosine reduces to a dot product with
    the normalized query.
    """
    if not query:
        raise ValueError("query must be non-empty")
    q = np.asarray(embedder.embed(query), dtype=np.float64)
    if q.shape != (index.dim,):
        raise ShapeError(f"query embedding shape {q.shape} does not match "
                         f"index dim {index.dim}")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("query embedding has zero norm")
    q = q / norm
    if len(index) == 0:
        return []
    scores = index.matrix() @ q
    hits = [Retrieved(chunk_id=cid, score=float(s))
            for cid, s in zip(index.ids, scores) if s > cfg.theta]
    hits.sort(key=lambda r: (-r.score, r.chunk_id))
    return hits


# -- corpus convenience layer --------------------------------------------------


@dataclass
class _IndexRow:
    """One line of a saved CorpusIndex. The embedding's elements are left
    to numpy, since checking each one would dominate the load."""
    id: str
    source_doc: str
    text: str
    lead: int
    embedding: list


class CorpusIndex:
    """VectorIndex plus the chunk texts, persistable as JSONL."""

    def __init__(self, dim: int):
        self.index = VectorIndex(dim)
        self.chunks: dict[str, Chunk] = {}

    def add_chunk(self, chunk: Chunk, embedding: Array) -> None:
        if chunk.chunk_id in self.chunks:
            raise ValueError(f"duplicate chunk id {chunk.chunk_id!r}")
        self.index.add(chunk.chunk_id, embedding)
        self.chunks[chunk.chunk_id] = chunk

    def text_of(self, chunk_id: str) -> str:
        return self.chunks[chunk_id].text

    def retrieve(self, query: str, cfg: RetrievalConfig, embedder: Embedder
                 ) -> list[Retrieved]:
        return retrieve(query, self.index, cfg, embedder)

    def save(self, path: str | Path) -> None:
        rows = []
        order = sorted(range(len(self.index.ids)),
                       key=lambda i: self.index.ids[i])
        for i in order:
            cid = self.index.ids[i]
            chunk = self.chunks[cid]
            rows.append(json.dumps({
                "id": cid,
                "source_doc": chunk.source_doc,
                "text": chunk.text,
                "lead": chunk.lead,
                "embedding": self.index._rows[i].tolist(),
            }, sort_keys=True))
        Path(path).write_text("\n".join(rows) + ("\n" if rows else ""))

    @classmethod
    def load(cls, path: str | Path) -> "CorpusIndex":
        lines = [ln for ln in Path(path).read_text().splitlines() if ln]
        if not lines:
            raise FormatError(f"index file {path} is empty")
        store: CorpusIndex | None = None
        for ln in lines:
            try:
                row = from_fields(_IndexRow, json.loads(ln), "index row",
                                  payload=ln)
                vec = np.asarray(row.embedding, dtype=np.float64)
            except (json.JSONDecodeError, TypeError) as exc:
                raise FormatError(f"bad index row: {exc}", payload=ln) from exc
            if not 0 <= row.lead <= len(row.text):
                raise FormatError(f"index row key 'lead' must lie in [0, "
                                  f"{len(row.text)}], got {row.lead}",
                                  payload=ln)
            if store is None:
                store = cls(dim=vec.shape[0])
            store.add_chunk(Chunk(chunk_id=row.id, text=row.text,
                                  source_doc=row.source_doc, lead=row.lead),
                            vec)
        assert store is not None
        return store


def build_corpus_index(docs: Iterable[tuple[str, str]], cfg: RetrievalConfig,
                       embedder: Embedder) -> CorpusIndex:
    """Split, embed, and index a corpus of (doc id, text) pairs."""
    store = CorpusIndex(dim=embedder.dim)
    for doc_id, text in docs:
        for chunk in split_recursive(text, doc_id, cfg):
            vec = np.asarray(embedder.embed(chunk.text), dtype=np.float64)
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise ValueError(f"embedding for {chunk.chunk_id!r} has zero "
                                 "norm")
            store.add_chunk(chunk, vec / norm)
    return store
