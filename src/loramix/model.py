"""Byte-level toy causal LM with frozen base weights and adapted FFNs.

Architecture: token + positional embeddings, then pre-norm blocks of
causal self-attention and a feed-forward layer, a final norm and an
unembedding projection. Every base tensor is write-protected after
construction; the only way the model changes is through the adapter
factors and router weights inside its FFN layers.

The backward pass is written by hand. It accumulates parameter
gradients only for the trainable adapter tensors, which keeps the update
surface identical to the documented training contract and lets finite
differences audit every trainable scalar. Everything below the lowest
adapted FFN is frozen, so no gradient flows there: backward stops after
that FFN and never walks the attention, norms and embeddings beneath it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import seeding
from .adapter import MixtureFfn, build_mixture, silu
from .errors import ConfigError, ShapeError
from .numerics import softmax_rows

Array = np.ndarray

VOCAB_BYTES = 256
NEWLINE = 10  # byte value used as the decode stop symbol
RMS_EPS = 1e-6


def encode_text(text: str) -> list[int]:
    """UTF-8 bytes of the text as token ids in [0, 256)."""
    return list(text.encode("utf-8"))


def decode_tokens(tokens: list[int]) -> str:
    return bytes(int(t) for t in tokens).decode("utf-8", errors="replace")


@dataclass
class ToyModelConfig:
    vocab_size: int = VOCAB_BYTES
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_seq_len: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                     "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )


@dataclass(frozen=True)
class AdapterSpec:
    """Routed expert mixture on every FFN."""

    n_experts: int = 8
    top_k: int = 2
    rank: int = 8
    alpha: float = 16.0

    def __post_init__(self):
        if self.n_experts < 1 or self.rank < 1:
            raise ConfigError("n_experts and rank must be >= 1")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(
                f"top_k={self.top_k} must lie in [1, {self.n_experts}]"
            )
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite, got {self.alpha}")


class FrozenFfn:
    """Undecorated frozen FFN; same arithmetic as the adapted layers at init.

    Takes the projections as given: `ToyCausalLm` has already checked and
    write-protected them. Nothing trains, so backward never reaches it and
    it keeps no cache.
    """

    def __init__(self, w1: Array, w2: Array):
        self.w1 = w1
        self.w2 = w2

    def forward_rows(self, x_rows: Array) -> tuple[Array, dict]:
        return silu(x_rows @ self.w1.T) @ self.w2.T, {}

    def trainable(self) -> dict[str, Array]:
        return {}


def _rms_forward(x: Array, gain: Array) -> tuple[Array, Array]:
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    return x / rms * gain, rms


def _rms_backward(x: Array, gain: Array, rms: Array, d_out: Array) -> Array:
    # y_i = g_i x_i / r with r = sqrt(mean(x^2) + eps)
    gd = d_out * gain
    inner = np.sum(gd * x, axis=-1, keepdims=True)
    d = x.shape[-1]
    return gd / rms - x * inner / (d * rms**3)


@functools.cache
def _causal_mask(n: int) -> Array:
    """Read-only (n, n) additive mask, -inf above the diagonal.

    Its `[start:start + t, :start + t]` slice masks t positions that
    continue a prefix of `start`.
    """
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class KvCache:
    """Per-layer attention keys and values of a sequence's first positions."""

    keys: tuple[Array, ...] = ()
    values: tuple[Array, ...] = ()

    @property
    def length(self) -> int:
        return self.keys[0].shape[0] if self.keys else 0


@dataclass
class Block:
    """One layer's frozen attention and norm arrays, and its FFN."""

    g_attn: Array
    wq: Array
    wk: Array
    wv: Array
    wo: Array
    g_ffn: Array
    ffn: FrozenFfn | MixtureFfn


class ToyCausalLm:
    """Small frozen transformer whose FFN layers carry the trainable adapters."""

    def __init__(self, cfg: ToyModelConfig,
                 adapters: AdapterSpec | None = AdapterSpec(),
                 base_weights: dict[str, Array] | None = None):
        self.cfg = cfg
        self.adapters = adapters
        layout = _base_layout(cfg)
        if base_weights is None:
            base_weights = _derive_base(layout, cfg.seed)
        missing = [name for name in layout if name not in base_weights]
        if missing:
            raise ShapeError(f"base weights lack {missing}")
        fields = [{} for _ in range(cfg.n_layers)]  # each block's arrays
        projs = [{} for _ in range(cfg.n_layers)]   # its FFN's projections
        for name, (layer, attr, shape, _, _) in layout.items():
            arr = np.array(base_weights[name], dtype=np.float64)
            if arr.shape != shape:
                raise ShapeError(f"base weight {name!r} has shape "
                                 f"{arr.shape}, expected {shape}")
            arr.setflags(write=False)
            if layer is None:
                setattr(self, attr, arr)
            elif attr.startswith("ffn."):
                projs[layer][attr.removeprefix("ffn.")] = arr
            else:
                fields[layer][attr] = arr
        self.blocks = [
            Block(**fields[layer],
                  ffn=FrozenFfn(**projs[layer]) if adapters is None
                  else build_mixture(**projs[layer], spec=adapters,
                                     seed=cfg.seed, layer_index=layer))
            for layer in range(cfg.n_layers)]
        # Backward stops at this block; len(blocks) when nothing trains.
        self.lowest_trained = next(
            (layer for layer, b in enumerate(self.blocks) if b.ffn.trainable()),
            cfg.n_layers)

    # -- base weight bookkeeping ---------------------------------------------

    def base_arrays(self) -> dict[str, Array]:
        """Every frozen tensor by name: the very arrays forward reads."""
        return {name: attrgetter(attr)(
                    self if layer is None else self.blocks[layer])
                for name, (layer, attr, *_) in _base_layout(self.cfg).items()}

    def base_weight_sha256(self) -> str:
        h = hashlib.sha256()
        arrays = self.base_arrays()
        for name in sorted(arrays):
            arr = arrays[name]
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def trainable_params(self) -> dict[str, Array]:
        out: dict[str, Array] = {}
        for layer, b in enumerate(self.blocks):
            for name, arr in b.ffn.trainable().items():
                out[f"block{layer}.{name}"] = arr
        return out

    def apply_updates(self, updates: dict[str, Array]) -> None:
        """Write new values into trainable tensors in place.

        Every name and shape must match `trainable_params()`; otherwise
        ShapeError, and no tensor changes.
        """
        params = self.trainable_params()
        for name, value in updates.items():
            if name not in params:
                raise ShapeError(f"no trainable tensor named {name!r}")
            if params[name].shape != np.shape(value):
                raise ShapeError(f"update for {name!r} has shape "
                                 f"{np.shape(value)}, expected "
                                 f"{params[name].shape}")
        for name, value in updates.items():
            params[name][...] = value

    # -- forward / backward ---------------------------------------------------

    def _check_tokens(self, tokens: list[int], start: int) -> np.ndarray:
        arr = np.asarray(tokens, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("token sequence must be a non-empty 1-D list")
        if start + arr.size > self.cfg.max_seq_len:
            raise ValueError(
                f"sequence length {start + arr.size} exceeds max_seq_len "
                f"{self.cfg.max_seq_len}"
            )
        if arr.min() < 0 or arr.max() >= self.cfg.vocab_size:
            raise ValueError("token id out of range for vocab "
                             f"{self.cfg.vocab_size}")
        return arr

    def forward(self, tokens: list[int], with_cache: bool = False,
                past: KvCache | None = None):
        """Logits (seq_len, vocab) for one sequence; optionally keep caches.

        With `past`, the tokens continue the prefix whose keys and values
        it holds: they take positions `past.length` onward, attend over
        the prefix as well, and the call returns `(logits, kv)` with `kv`
        extended by the new positions. `KvCache()` starts from nothing.
        The backward cache needs the whole sequence, so `with_cache`
        excludes `past`. It keeps only the FFN cache of the blocks that
        backward does not walk through, `lowest_trained` and below.
        """
        if with_cache and past is not None:
            raise ValueError("with_cache needs the whole sequence, not a past")
        start = 0 if past is None else past.length
        ids = self._check_tokens(tokens, start)
        t = ids.size
        d = self.cfg.d_model
        n_heads = self.cfg.n_heads
        dh = d // n_heads
        inv_sqrt = 1.0 / np.sqrt(dh)
        mask = _causal_mask(self.cfg.max_seq_len)[start:start + t,
                                                  :start + t]

        x = self.wte[ids] + self.wpe[start:start + t]
        caches = []
        keys: list[Array] = []
        values: list[Array] = []
        for layer, b in enumerate(self.blocks):
            a, r1 = _rms_forward(x, b.g_attn)
            q_all = a @ b.wq.T
            k_all = a @ b.wk.T
            v_all = a @ b.wv.T
            if start:
                k_all = np.concatenate((past.keys[layer], k_all))
                v_all = np.concatenate((past.values[layer], v_all))
            keys.append(k_all)
            values.append(v_all)
            heads = []
            o = np.empty_like(a)
            for h in range(n_heads):
                sl = slice(h * dh, (h + 1) * dh)
                scores = q_all[:, sl] @ k_all[:, sl].T
                scores *= inv_sqrt
                scores += mask
                probs = softmax_rows(scores)
                o[:, sl] = probs @ v_all[:, sl]
                heads.append(probs)
            x_attn = x + o @ b.wo.T
            ff_in, r2 = _rms_forward(x_attn, b.g_ffn)
            ff_out, ff_cache = b.ffn.forward_rows(ff_in)
            x_next = x_attn + ff_out
            if with_cache:
                c = {"ff_cache": ff_cache}
                if layer > self.lowest_trained:
                    c.update(x=x, r1=r1, q=q_all, k=k_all, v=v_all,
                             heads=heads, x_attn=x_attn, r2=r2)
                caches.append(c)
            x = x_next
        x_final, r_final = _rms_forward(x, self.g_final)
        logits = x_final @ self.w_unembed.T
        if with_cache:
            return logits, {"blocks": caches, "x_last": x,
                            "r_final": r_final, "inv_sqrt": inv_sqrt}
        if past is not None:
            return logits, KvCache(tuple(keys), tuple(values))
        return logits

    def backward(self, cache: dict, d_logits: Array) -> dict[str, Array]:
        """Adapter-parameter gradients given the loss gradient at the logits.

        Walks down from the top block and returns after the FFN of block
        `lowest_trained`: nothing beneath it trains, so the gradient of
        its input would feed nothing. An undecorated model returns `{}`.
        """
        lowest = self.lowest_trained
        if lowest == len(self.blocks):
            return {}
        n_heads = self.cfg.n_heads
        dh = self.cfg.d_model // n_heads
        inv_sqrt = cache["inv_sqrt"]

        d_x_final = d_logits @ self.w_unembed
        d_x = _rms_backward(cache["x_last"], self.g_final, cache["r_final"],
                            d_x_final)
        grads: dict[str, Array] = {}
        for layer in range(len(self.blocks) - 1, lowest - 1, -1):
            b = self.blocks[layer]
            c = cache["blocks"][layer]
            d_ff_in, ffn_grads = b.ffn.backward_rows(c["ff_cache"], d_x)
            for name, g in ffn_grads.items():
                grads[f"block{layer}.{name}"] = g
            if layer == lowest:
                break
            d_x_attn = d_x + _rms_backward(c["x_attn"], b.g_ffn, c["r2"],
                                           d_ff_in)
            d_o = d_x_attn @ b.wo
            d_q = np.empty_like(c["q"])
            d_k = np.empty_like(c["k"])
            d_v = np.empty_like(c["v"])
            for h in range(n_heads):
                sl = slice(h * dh, (h + 1) * dh)
                probs = c["heads"][h]
                d_probs = d_o[:, sl] @ c["v"][:, sl].T
                d_v[:, sl] = probs.T @ d_o[:, sl]
                d_probs -= np.sum(d_probs * probs, axis=-1, keepdims=True)
                d_probs *= probs
                d_q[:, sl] = d_probs @ c["k"][:, sl] * inv_sqrt
                d_k[:, sl] = d_probs.T @ c["q"][:, sl] * inv_sqrt
            d_a = d_q @ b.wq + d_k @ b.wk + d_v @ b.wv
            d_x = d_x_attn + _rms_backward(c["x"], b.g_attn, c["r1"], d_a)
        return grads

    # -- decoding -------------------------------------------------------------

    def generate(self, prompt_tokens: list[int], max_new_tokens: int = 48,
                 stop_token: int | None = NEWLINE) -> list[int]:
        """Greedy continuation; stops at the stop token or the budget.

        The prompt is forwarded once and each emitted token then forwards
        one new position against the cached keys and values. Positional
        embeddings are absolute, so once the sequence outgrows the
        context window the cache no longer applies: from then on every
        step re-forwards the trailing window, and a prompt longer than
        the window takes that path from the start.
        """
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        window = self.cfg.max_seq_len
        tokens = list(prompt_tokens)
        out: list[int] = []
        kv = KvCache()
        for _ in range(max_new_tokens):
            if len(tokens) <= window:
                logits, kv = self.forward(tokens[kv.length:], past=kv)
            else:
                logits = self.forward(tokens[-window:])
            nxt = int(np.argmax(logits[-1]))
            if stop_token is not None and nxt == stop_token:
                break
            out.append(nxt)
            tokens.append(nxt)
        return out

    def generate_text(self, prompt: str, max_new_tokens: int = 48) -> str:
        """Greedy byte decoding from a text prompt, stopping at newline."""
        return decode_tokens(self.generate(encode_text(prompt),
                                           max_new_tokens=max_new_tokens))


def _base_layout(cfg: ToyModelConfig) -> dict[str, tuple]:
    """The one naming of the frozen base: each tensor's checkpoint name
    mapped to (layer, attr, shape, key, std). The tensor is attribute
    `attr` of the model when `layer` is None, else of that block, an
    `ffn.` prefix reaching into its FFN. Its seeded value is normal with
    `std` from the stream `seeding.rng_for(seed, *key)`, or ones for a
    norm gain, whose key is None."""
    d, d_ff, std = cfg.d_model, cfg.d_ff, 1.0 / np.sqrt(cfg.d_model)
    layout = {
        "wte": (None, "wte", (cfg.vocab_size, d), (seeding.EMBEDDING,), 0.1),
        "wpe": (None, "wpe", (cfg.max_seq_len, d), (seeding.POSITIONAL,),
                0.1),
        "final.gain": (None, "g_final", (d,), None, None),
        "unembed.w": (None, "w_unembed", (cfg.vocab_size, d),
                      (seeding.UNEMBED,), std),
    }
    for layer in range(cfg.n_layers):
        p = f"block{layer}."
        layout[p + "attn.gain"] = (layer, "g_attn", (d,), None, None)
        for idx, w in enumerate(("wq", "wk", "wv", "wo")):
            layout[p + "attn." + w] = (layer, w, (d, d),
                                       (seeding.ATTENTION, layer, idx), std)
        layout[p + "ffn.gain"] = (layer, "g_ffn", (d,), None, None)
        layout[p + "ffn.w1"] = (layer, "ffn.w1", (d_ff, d),
                                (seeding.FFN_BASE, layer, 0), std)
        layout[p + "ffn.w2"] = (layer, "ffn.w2", (d, d_ff),
                                (seeding.FFN_BASE, layer, 1),
                                1.0 / np.sqrt(d_ff))
    return layout


def _derive_base(layout: dict[str, tuple], seed: int) -> dict[str, Array]:
    """Each frozen tensor's seeded value, drawn from its own stream."""
    return {name: np.ones(shape) if key is None
            else seeding.rng_for(seed, *key).normal(0.0, std, size=shape)
            for name, (_, _, shape, key, std) in layout.items()}
