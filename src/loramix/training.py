"""Adapter training on the frozen toy LM: loss, loop, audit, checkpoints.

The loss is next-token cross-entropy restricted to answer tokens. A
training example is a (prompt, answer) text pair; the model sees
prompt + answer + newline and only positions whose target falls inside
answer + newline count toward the loss.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .errors import ConfigError, FormatError, StateError, from_fields
from .model import (AdapterSpec, NEWLINE, ToyCausalLm, ToyModelConfig,
                    encode_text)
from .numerics import AdamState, adam_step

Array = np.ndarray

QA_PROMPT_TEMPLATE = "Q: {q}\nA: "

CHECKPOINT_MAGIC = b"LORAMIX-BASEW\x00\x00\x00"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainExample:
    prompt: str
    answer: str


def format_qa(question: str, answer: str) -> TrainExample:
    """Standard question/answer templating used by the training command."""
    return TrainExample(prompt=QA_PROMPT_TEMPLATE.format(q=question),
                        answer=answer)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")


@dataclass
class TrainResult:
    loss_trace: list[float]
    steps: int


def encode_example(example: TrainExample, max_seq_len: int
                   ) -> tuple[list[int], np.ndarray]:
    """Token ids plus a boolean mask marking the answer span (incl. newline).

    Sequences longer than the context window keep only their trailing
    window, so the answer span always survives.
    """
    prompt_ids = encode_text(example.prompt)
    answer_ids = encode_text(example.answer) + [NEWLINE]
    ids = prompt_ids + answer_ids
    mask = np.zeros(len(ids), dtype=bool)
    mask[len(prompt_ids):] = True
    if len(ids) > max_seq_len:
        ids = ids[-max_seq_len:]
        mask = mask[-max_seq_len:]
    return ids, mask


def _inverse_count(batch: list[tuple[list[int], np.ndarray]]) -> float:
    """One over the batch's supervised positions."""
    total_count = sum(int(mask[1:].sum()) for _, mask in batch)
    if total_count == 0:
        raise ValueError("batch contains no supervised positions")
    return 1.0 / total_count


def _masked_cross_entropy(logits: Array, ids: list[int], mask: np.ndarray,
                          inv: float) -> tuple[float, Array]:
    """One sequence's share of the batch's mean masked cross-entropy, and
    that share's gradient with respect to the logits."""
    targets = np.asarray(ids[1:], dtype=np.int64)
    counted = mask[1:]
    shifted = logits[:-1] - logits[:-1].max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    log_z = np.log(np.sum(exp, axis=1))
    log_probs = shifted[np.arange(len(ids) - 1), targets] - log_z
    sel = (exp / np.sum(exp, axis=1, keepdims=True))[counted]
    sel[np.arange(sel.shape[0]), targets[counted]] -= 1.0
    d_logits = np.zeros_like(logits)
    d_logits[:-1][counted] = sel * inv
    return -float(np.sum(log_probs[counted])) * inv, d_logits


def batch_loss(model: ToyCausalLm, batch: list[tuple[list[int], np.ndarray]]
               ) -> float:
    """Mean masked cross-entropy over the batch, forward only."""
    inv = _inverse_count(batch)
    loss = 0.0
    for ids, mask in batch:
        loss += _masked_cross_entropy(model.forward(ids), ids, mask, inv)[0]
    return loss


def loss_and_grads(model: ToyCausalLm, batch: list[tuple[list[int], np.ndarray]]
                   ) -> tuple[float, dict[str, Array]]:
    """Mean masked cross-entropy over the batch plus adapter gradients.

    Positions are counted once across the whole batch, so the gradient is
    the exact gradient of the returned scalar.
    """
    inv = _inverse_count(batch)
    loss = 0.0
    grads: dict[str, Array] = {}
    for ids, mask in batch:
        logits, cache = model.forward(ids, with_cache=True)
        share, d_logits = _masked_cross_entropy(logits, ids, mask, inv)
        loss += share
        seq_grads = model.backward(cache, d_logits)
        for name, g in seq_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    return loss, grads


def train(model: ToyCausalLm, examples: list[TrainExample], cfg: TrainConfig
          ) -> TrainResult:
    """Seeded mini-batch Adam over the adapter parameters.

    Each epoch visits a fresh seeded permutation of the examples in
    contiguous batches (the trailing partial batch included). Zero epochs
    mean zero steps and untouched parameters. A non-finite loss raises
    StateError naming its epoch and step (the `loss.csv` step index), and
    that step's update is not applied.
    """
    if not examples:
        raise ValueError("training set must be non-empty")
    encoded = [encode_example(ex, model.cfg.max_seq_len) for ex in examples]
    params = model.trainable_params()
    states = {name: AdamState.for_param(arr, lr=cfg.lr)
              for name, arr in params.items()}
    trace: list[float] = []
    n = len(encoded)
    for epoch in range(cfg.epochs):
        perm = seeding.rng_for(cfg.seed, seeding.SHUFFLE, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = [encoded[i] for i in perm[start:start + cfg.batch_size]]
            loss, grads = loss_and_grads(model, batch)
            if not math.isfinite(loss):
                raise StateError(f"non-finite loss {loss} at epoch {epoch}, "
                                 f"step {len(trace)}")
            model.apply_updates({
                name: adam_step(arr, grads[name], states[name])
                for name, arr in params.items()})
            trace.append(loss)
    return TrainResult(loss_trace=trace, steps=len(trace))


# -- finite-difference audit --------------------------------------------------

MAX_CHECKABLE_PARAMS = 5000
# Half-width of the seeded uniform jitter added to every trainable scalar.
AUDIT_JITTER = 0.1
# Central-difference step applied to each trainable scalar.
AUDIT_EPSILON = 1e-5
# Floor of the relative error's denominator.
AUDIT_DENOM_FLOOR = 1e-4


def gradient_check(model: ToyCausalLm, example: TrainExample) -> float:
    """Max relative error of analytic vs central-difference loss gradients.

    Every trainable scalar is perturbed by +-AUDIT_EPSILON. The model's
    trainable tensors are first jittered (seeded) away from the zero-up
    initialization so all gradient paths are live, and the gating margins
    are verified wide enough that the finite differences cannot flip an
    expert selection. Models with more than MAX_CHECKABLE_PARAMS
    trainable scalars are refused.

    The relative error divides by max(|analytic|, |numeric|,
    AUDIT_DENOM_FLOOR), so for gradients below the floor this is a scaled
    absolute error.
    """
    params = model.trainable_params()
    n_scalar = sum(arr.size for arr in params.values())
    if n_scalar > MAX_CHECKABLE_PARAMS:
        raise ConfigError(
            f"model has {n_scalar} trainable scalars; the exhaustive check "
            f"is limited to {MAX_CHECKABLE_PARAMS}"
        )
    rng = seeding.rng_for(model.cfg.seed, seeding.JITTER)
    model.apply_updates({
        name: arr + rng.uniform(-AUDIT_JITTER, AUDIT_JITTER, size=arr.shape)
        for name, arr in params.items()
    })
    batch = [encode_example(example, model.cfg.max_seq_len)]
    _assert_gating_margins(model, batch[0][0])

    _, analytic = loss_and_grads(model, batch)

    def loss_at() -> float:
        return batch_loss(model, batch)

    worst = 0.0
    for name, arr in model.trainable_params().items():
        a_grad = analytic[name]
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + AUDIT_EPSILON
            up = loss_at()
            flat[j] = orig - AUDIT_EPSILON
            down = loss_at()
            flat[j] = orig
            numeric = (up - down) / (2 * AUDIT_EPSILON)
            a = float(a_grad.reshape(-1)[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric),
                                         AUDIT_DENOM_FLOOR)
            worst = max(worst, rel)
    return worst


def _assert_gating_margins(model: ToyCausalLm, ids: list[int]) -> None:
    """Refuse the audit when a top-k boundary sits too close to flip."""
    logits_margin = 50.0 * AUDIT_EPSILON
    _, cache = model.forward(ids, with_cache=True)
    for block, layer_cache in zip(model.blocks, cache["blocks"]):
        ff_cache = layer_cache["ff_cache"]
        if "full" not in ff_cache:
            continue
        scores = np.sort(ff_cache["full"], axis=1)[:, ::-1]
        k = block.ffn.top_k
        if scores.shape[1] > k:
            margin = scores[:, k - 1] - scores[:, k]
            if float(margin.min()) < logits_margin:
                raise StateError(
                    "gating margin too small for a finite-difference audit; "
                    "use a different seed or sample"
                )


# -- checkpoints ---------------------------------------------------------------


# The top-level keys of model_config.json.
CHECKPOINT_KEYS = {"model", "adapter", "base_sha256"}


def save_checkpoint(directory: str | Path, model: ToyCausalLm) -> None:
    """Write model_config.json (model config, adapter spec or null, and the
    base weights' sha256) and weights.bin (every `base_arrays()` and
    `trainable_params()` array)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = model.adapters
    cfg_payload = {"model": asdict(model.cfg),
                   "adapter": None if spec is None else asdict(spec),
                   "base_sha256": model.base_weight_sha256()}
    (directory / "model_config.json").write_text(
        json.dumps(cfg_payload, sort_keys=True, indent=2) + "\n")
    _write_arrays(directory / "weights.bin",
                  {**model.base_arrays(), **model.trainable_params()})


def load_checkpoint(directory: str | Path) -> ToyCausalLm:
    """Inverse of `save_checkpoint`; FormatError for a malformed config, a
    malformed weight file, array names other than the model's, or base
    weights whose sha256 is not the recorded one."""
    directory = Path(directory)
    try:
        cfg_payload = json.loads((directory / "model_config.json").read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"unreadable model config: {exc}") from exc
    if not isinstance(cfg_payload, dict):
        raise FormatError("checkpoint model config must be a JSON object")
    missing = CHECKPOINT_KEYS - cfg_payload.keys()
    unknown = cfg_payload.keys() - CHECKPOINT_KEYS
    if missing or unknown:
        raise FormatError(f"checkpoint model config keys: missing "
                          f"{sorted(missing)}, unknown {sorted(unknown)}")
    cfg = from_fields(ToyModelConfig, cfg_payload["model"], "checkpoint model")
    adapter = cfg_payload["adapter"]
    spec = (None if adapter is None
            else from_fields(AdapterSpec, adapter, "checkpoint adapter"))
    arrays = _read_arrays(directory / "weights.bin")
    try:
        model = ToyCausalLm(cfg, adapters=spec, base_weights=arrays)
    except KeyError as exc:
        raise FormatError(f"checkpoint weights lack base array {exc}") from exc
    trainable = model.trainable_params()
    names = model.base_arrays().keys() | trainable.keys()
    missing, unknown = names - arrays.keys(), arrays.keys() - names
    if missing or unknown:
        raise FormatError(f"checkpoint weights: missing {sorted(missing)}, "
                          f"unknown {sorted(unknown)}")
    recorded = cfg_payload["base_sha256"]
    if recorded != model.base_weight_sha256():
        raise FormatError("checkpoint base weights do not match base_sha256 "
                          f"{recorded!r}")
    model.apply_updates({name: arrays[name] for name in trainable})
    return model


def _write_arrays(path: Path, arrays: dict[str, Array]) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<B", CHECKPOINT_VERSION))
        names = sorted(arrays)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def _read_arrays(path: Path) -> dict[str, Array]:
    """Inverse of `_write_arrays`; FormatError for any other content."""
    blob = Path(path).read_bytes()
    if blob[:16] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path.name} has a bad magic header")
    if blob[16:17] != bytes([CHECKPOINT_VERSION]):
        raise FormatError(f"{path.name} is not a version "
                          f"{CHECKPOINT_VERSION} weight file")
    out: dict[str, Array] = {}
    off = 17
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            ndim = blob[off]
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            size = math.prod(shape) * 8
            out[name] = np.frombuffer(blob[off:off + size],
                                      dtype="<f8").reshape(shape)
            off += size
    except (struct.error, IndexError, ValueError) as exc:
        raise FormatError(f"{path.name} is truncated or malformed: "
                          f"{exc}") from exc
    if off != len(blob):
        raise FormatError(f"{path.name} has {len(blob) - off} trailing bytes")
    if len(out) != count:
        raise FormatError(f"{path.name} repeats an array name")
    return out


def write_loss_csv(path: str | Path, trace: list[float]) -> None:
    lines = ["step,loss"]
    lines += [f"{i},{loss!r}" for i, loss in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n")
