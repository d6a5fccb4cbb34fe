"""Independent checks on the program's outputs.

Nothing here reuses the program's retrieval, metric or decoding code:
the retrieval oracle recounts trigrams and decides every comparison in
integer arithmetic, the recall-accuracy oracle recomputes token F1 and
trigram cosine from scratch, and the decoding and gradient checks only
call the model's public forward and loss functions.
"""

from __future__ import annotations

import hashlib
import math
import string
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np

NEWLINE = 10
RA_TOL = 1e-12
SCORE_TOL = 1e-12
# Candidates are pre-selected with floats; everything within this margin
# of theta is decided exactly. Float cosines of small integer counts are
# off by a few ulps, far inside it.
PREFILTER_MARGIN = 1e-9
BOUNDARY_MARGIN = 1e-12


# -- trigram counts ------------------------------------------------------------


def trigram_counts(text: str, dim: int) -> Counter:
    """CRC32-bucketed character-trigram counts; short texts are one gram."""
    grams = [text] if len(text) < 3 else [text[i:i + 3]
                                         for i in range(len(text) - 2)]
    return Counter(zlib.crc32(g.encode("utf-8")) % dim for g in grams)


def _count_vector(text: str, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.int64)
    for bucket, n in trigram_counts(text, dim).items():
        vec[bucket] = n
    return vec


class ExactRetrieval:
    """Exact threshold retrieval over a fixed set of chunk texts.

    A chunk is a hit when its cosine with the query strictly exceeds
    theta; hits sort by descending cosine, ties by chunk id. Cosines of
    count vectors are dot / sqrt(n_chunk * n_query), so both decisions
    reduce to comparisons of integers and exact fractions.
    """

    def __init__(self, ids: list[str], texts: list[str], dim: int):
        self.ids = list(ids)
        self.dim = dim
        self.counts = np.stack([_count_vector(t, dim) for t in texts])
        self.norms = np.einsum("ij,ij->i", self.counts, self.counts)

    def hits(self, query: str, theta: float) -> list[tuple[str, float]]:
        """(chunk id, cosine) of every hit, in the specified order."""
        q = _count_vector(query, self.dim)
        nq = int(q @ q)
        dots = self.counts @ q
        approx = dots / np.sqrt(self.norms.astype(np.float64) * nq)
        exact_theta = Fraction(theta)
        keep = []
        for i in np.nonzero(approx > theta - PREFILTER_MARGIN)[0]:
            dot, n = int(dots[i]), int(self.norms[i])
            if exact_theta < 0:
                above = True  # counts are non-negative, so dot >= 0
            else:
                above = (dot > 0 and Fraction(dot * dot, n * nq)
                         > exact_theta * exact_theta)
            if above:
                keep.append((Fraction(dot * dot, n), self.ids[i], dot, n))
        keep.sort(key=lambda r: (-r[0], r[1]))
        return [(cid, dot / math.sqrt(n * nq)) for _, cid, dot, n in keep]

    def ambiguous(self, queries: list[str], theta: float) -> list[set[int]]:
        """Per query, the chunks whose order or threshold decision rounding
        can flip: hits with exactly equal cosines, and cosines within a
        rounding error of theta (a cosine of exactly 9/20 against the
        double nearest 0.45, say). Distinct cosines of these small counts
        differ by far more than rounding, so no other order can flip. All
        dot products are small integers, exact in float64."""
        q = np.stack([_count_vector(t, self.dim) for t in queries])
        nq = np.einsum("ij,ij->i", q, q)
        dots = q.astype(np.float64) @ self.counts.T.astype(np.float64)
        approx = dots / np.sqrt(np.outer(nq, self.norms).astype(np.float64))
        exact_theta = Fraction(theta)
        out = []
        for r in range(len(queries)):
            involved: set[int] = set()
            groups: dict[Fraction, list[int]] = {}
            for i in np.nonzero(approx[r] > theta - PREFILTER_MARGIN)[0]:
                if abs(approx[r, i] - theta) <= BOUNDARY_MARGIN:
                    involved.add(int(i))
                    continue
                dot, n = int(dots[r, i]), int(self.norms[i])
                square = Fraction(dot * dot, n * int(nq[r]))
                if exact_theta < 0 or square > exact_theta * exact_theta:
                    groups.setdefault(square, []).append(int(i))
            for members in groups.values():
                if len(members) > 1:
                    involved.update(members)
            out.append(involved)
        return out

    def check(self, query: str, theta: float, got_ids: list[str],
              got_scores: list[float] | None = None) -> bool:
        want = self.hits(query, theta)
        if [cid for cid, _ in want] != list(got_ids):
            return False
        if got_scores is not None:
            return all(abs(s - w) <= SCORE_TOL
                       for s, (_, w) in zip(got_scores, want))
        return True


def classify(hit_ids: list[str], golden: str) -> str:
    if not hit_ids:
        return "empty_context"
    if golden not in hit_ids:
        return "irrelevant_context"
    return "golden_context" if len(hit_ids) == 1 else "mixed_context"


# -- recall accuracy -----------------------------------------------------------

_PUNCT = frozenset(string.punctuation)


def _tokens(text: str) -> list[str]:
    return "".join(c for c in text.lower() if c not in _PUNCT).split()


def token_f1(answer: str, truth: str) -> float:
    a, t = Counter(_tokens(answer)), Counter(_tokens(truth))
    tp = sum(min(n, t[w]) for w, n in a.items())
    fp = sum(a.values()) - tp
    fn = sum(t.values()) - tp
    if tp + fp + fn == 0:
        return 1.0
    return tp / (tp + 0.5 * (fp + fn))


def trigram_cosine(a: str, b: str, dim: int) -> float:
    ca, cb = trigram_counts(a, dim), trigram_counts(b, dim)
    dot = sum(n * cb[k] for k, n in ca.items())
    na = sum(n * n for n in ca.values())
    nb = sum(n * n for n in cb.values())
    return dot / math.sqrt(na * nb)


def recall_accuracy(answer: str, truth: str, dim: int,
                    token_weight: float = 1.0,
                    embedding_weight: float = 1.0) -> float:
    """Weighted mean of token F1 and the clamped trigram cosine."""
    f1 = token_f1(answer, truth)
    cos = trigram_cosine(answer, truth, dim) if (answer.strip()
                                                 and truth.strip()) else 0.0
    cos = min(max(cos, 0.0), 1.0)
    return ((f1 * token_weight + cos * embedding_weight)
            / (token_weight + embedding_weight))


def first_sentence(text: str) -> str:
    stripped = text.strip()
    for i, c in enumerate(stripped):
        if c in ".!?":
            return stripped[:i + 1]
    return stripped


# -- greedy decoding -----------------------------------------------------------


def greedy_consistent(model, prompt: list[int], max_new: int, out: list[int],
                      stop: int = NEWLINE) -> bool:
    """Each emitted token is the argmax of model.forward over the prompt
    plus the tokens before it, cut to the trailing window, and decoding
    stopped exactly at the stop token or at the budget.

    When no context needs cutting, one forward over the whole sequence
    gives every position's logits; a disagreement there is re-decided
    with the exact per-prefix forward, so rounding differences between
    sequence lengths cannot fail the check.
    """
    if stop in out or len(out) > max_new or not prompt:
        return False
    window = model.cfg.max_seq_len
    seq = list(prompt) + list(out)
    expected = list(out) + ([stop] if len(out) < max_new else [])

    def exact(i: int) -> int:
        ctx = seq[:len(prompt) + i][-window:]
        return int(np.argmax(model.forward(ctx)[-1]))

    longest = len(prompt) + len(expected) - 1
    if longest <= window:
        logits = model.forward(seq[:longest])
        for i, want in enumerate(expected):
            if (int(np.argmax(logits[len(prompt) - 1 + i])) != want
                    and exact(i) != want):
                return False
        return True
    return all(exact(i) == want for i, want in enumerate(expected))


# -- training ------------------------------------------------------------------


def base_hash(model) -> str:
    h = hashlib.sha256()
    arrays = model.base_arrays()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()


GRAD_EPSILONS = (1e-6, 1e-7)
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-9


def gradient_matches(model, batch, seed: int, loss_and_grads,
                     batch_loss) -> bool:
    """Central difference of batch_loss along a seeded random unit
    direction against the analytic gradient's projection.

    A top-k routing choice can flip inside the difference interval; a
    second, smaller step is tried before the check counts as failed.
    """
    params = {n: np.array(a, copy=True)
              for n, a in model.trainable_params().items()}
    _, grads = loss_and_grads(model, batch)
    rng = np.random.default_rng(seed)
    direction = {n: rng.standard_normal(a.shape) for n, a in params.items()}
    scale = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {n: d / scale for n, d in direction.items()}
    analytic = sum(float(np.sum(grads[n] * d)) for n, d in direction.items()
                   if n in grads)
    try:
        for eps in GRAD_EPSILONS:
            model.apply_updates({n: a + eps * direction[n]
                                 for n, a in params.items()})
            up = batch_loss(model, batch)
            model.apply_updates({n: a - eps * direction[n]
                                 for n, a in params.items()})
            down = batch_loss(model, batch)
            numeric = (up - down) / (2 * eps)
            if abs(numeric - analytic) <= (
                    GRAD_RTOL * max(abs(numeric), abs(analytic)) + GRAD_ATOL):
                return True
        return False
    finally:
        model.apply_updates({n: a.copy() for n, a in params.items()})
