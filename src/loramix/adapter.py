"""Routed mixture of low-rank experts on a frozen feed-forward layer.

The decorated layer is a frozen two-layer FFN. Each expert is a rank-r
factor pair whose product perturbs the first projection; a linear router
scores all experts per input vector, the scores pass through a softmax
over every expert, and only the top-k survive with their weights
renormalized to sum to one. Unselected experts contribute nothing to the
output and receive no gradient. With all up-factors zero the layer is
exactly the frozen FFN, so a freshly decorated model reproduces its base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import as_matrix, softmax_rows

Array = np.ndarray


def silu(x: Array) -> Array:
    return x / (1.0 + np.exp(-x))


def silu_grad(x: Array) -> Array:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


@dataclass
class LoraExpert:
    """Rank-r update factors for one expert.

    `down` maps the layer input into the rank space, `up` maps it back
    out; the applied delta is (alpha / rank) * up @ (down @ x).
    """

    down: Array  # (rank, d_in)
    up: Array    # (d_out, rank)
    rank: int
    alpha: float

    def __post_init__(self):
        self.down = as_matrix(self.down, "down factor")
        self.up = as_matrix(self.up, "up factor")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.down.shape[0] != self.rank or self.up.shape[1] != self.rank:
            raise ShapeError(
                f"factor shapes {self.down.shape} / {self.up.shape} do not "
                f"match rank {self.rank}"
            )

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    @property
    def d_in(self) -> int:
        return self.down.shape[1]

    @property
    def d_out(self) -> int:
        return self.up.shape[0]

    @classmethod
    def init(cls, d_in: int, d_out: int, rank: int, alpha: float,
             rng: np.random.Generator) -> "LoraExpert":
        """Uniform down factor, zero up factor: the delta starts at zero."""
        bound = 1.0 / np.sqrt(d_in)
        down = rng.uniform(-bound, bound, size=(rank, d_in))
        up = np.zeros((d_out, rank))
        return cls(down=down, up=up, rank=rank, alpha=alpha)


@dataclass
class Router:
    """Linear scorer over experts: one weight column per expert."""

    weights: Array  # (d_in, n_experts)

    def __post_init__(self):
        self.weights = as_matrix(self.weights, "router weights")

    @property
    def n_experts(self) -> int:
        return self.weights.shape[1]

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]


def route_rows(logits: Array, k: int) -> tuple[Array, Array, Array, Array]:
    """Top-k routing of a stack of router logits, one row per input.

    Returns `full`, the softmax over every expert; `order`, the k
    selected expert indices per row in descending score order, ties
    going to the lower index; `denom`, the selected scores' sum per row;
    and `mix`, the selected scores divided by `denom` at their expert
    columns and zero elsewhere, so each row sums to one.
    """
    n = logits.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    full = softmax_rows(logits)
    # Stable argsort on negated scores: equal scores keep index order.
    order = np.argsort(-full, axis=1, kind="stable")[:, :k]
    picked = np.take_along_axis(full, order, axis=1)
    denom = picked.sum(axis=1, keepdims=True)
    mix = np.zeros_like(full)
    np.put_along_axis(mix, order, picked / denom, axis=1)
    return full, order, denom, mix


class MixtureFfn:
    """Frozen two-layer FFN decorated with a routed mixture of experts.

    Forward: h = W1 x + sum over selected experts of weight_i * delta_i(x),
    y = W2 silu(h). The base projections are write-protected at
    construction; only expert factors and router weights train.
    """

    def __init__(self, w1: Array, w2: Array, experts: list[LoraExpert],
                 router: Router, top_k: int):
        w1 = np.array(as_matrix(w1, "first projection"), dtype=np.float64)
        w2 = np.array(as_matrix(w2, "second projection"), dtype=np.float64)
        d_ff, d_in = w1.shape
        if w2.shape != (d_in, d_ff):
            raise ShapeError(
                f"second projection must be ({d_in}, {d_ff}), got {w2.shape}"
            )
        if not experts:
            raise ValueError("need at least one expert")
        for e in experts:
            if e.d_in != d_in or e.d_out != d_ff:
                raise ShapeError(
                    f"expert dims ({e.d_in} -> {e.d_out}) do not match the "
                    f"decorated projection ({d_in} -> {d_ff})"
                )
        if router.d_in != d_in or router.n_experts != len(experts):
            raise ShapeError("router shape does not match input dim / expert count")
        if not 1 <= top_k <= len(experts):
            raise ValueError(
                f"top_k must satisfy 1 <= k <= {len(experts)}, got {top_k}"
            )
        w1.setflags(write=False)
        w2.setflags(write=False)
        self.w1 = w1
        self.w2 = w2
        self.experts = experts
        self.router = router
        self.top_k = top_k

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[0]

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    # -- row-vectorized core -------------------------------------------------

    def forward_rows(self, x_rows: Array) -> tuple[Array, dict]:
        """Forward over a stack of input vectors; returns output and cache."""
        x_rows = as_matrix(x_rows, "layer input rows")
        if x_rows.shape[1] != self.d_in:
            raise ShapeError(
                f"layer expects rows of length {self.d_in}, got {x_rows.shape[1]}"
            )
        full, order, denom, mix = route_rows(x_rows @ self.router.weights,
                                             self.top_k)

        hidden = x_rows @ self.w1.T                      # (N, d_ff)
        rank_proj: list[Array] = []
        deltas: list[Array] = []
        for i, e in enumerate(self.experts):
            p = x_rows @ e.down.T                        # (N, rank)
            d = e.scale * (p @ e.up.T)                   # (N, d_ff)
            rank_proj.append(p)
            deltas.append(d)
            hidden = hidden + mix[:, i : i + 1] * d
        act = silu(hidden)
        out = act @ self.w2.T
        cache = {
            "x": x_rows, "full": full, "order": order, "denom": denom,
            "mix": mix, "hidden": hidden, "rank_proj": rank_proj,
            "deltas": deltas,
        }
        return out, cache

    def backward_rows(self, cache: dict, upstream_rows: Array
                      ) -> tuple[Array, dict[str, Array]]:
        """Reverse pass through one cached forward.

        Returns the gradient with respect to the input rows plus a dict of
        gradients for every trainable tensor. Unselected experts get exact
        zeros; the frozen projections get no entry at all.
        """
        x_rows = cache["x"]
        full, order, denom = cache["full"], cache["order"], cache["denom"]
        mix, hidden = cache["mix"], cache["hidden"]

        d_act = upstream_rows @ self.w2                  # (N, d_ff)
        d_hidden = d_act * silu_grad(hidden)
        d_x = d_hidden @ self.w1

        grads: dict[str, Array] = {}
        d_mix = np.zeros_like(mix)
        for i, e in enumerate(self.experts):
            w_col = mix[:, i : i + 1]
            d_delta = w_col * d_hidden                   # zero when unselected
            d_mix[:, i] = np.sum(d_hidden * cache["deltas"][i], axis=1)
            grads[f"expert{i}.up"] = e.scale * d_delta.T @ cache["rank_proj"][i]
            d_p = e.scale * (d_delta @ e.up)
            grads[f"expert{i}.down"] = d_p.T @ x_rows
            d_x = d_x + d_p @ e.down

        # Renormalization backward, restricted to the selected set; the
        # dropped experts' mixing weights are constants (zero), so only
        # the softmax coupling below routes gradient to their logits.
        picked_d = np.take_along_axis(d_mix, order, axis=1)
        picked_s = np.take_along_axis(full, order, axis=1)
        dot = np.sum(picked_d * picked_s, axis=1, keepdims=True)
        d_sel = picked_d / denom - dot / denom**2
        d_full = np.zeros_like(full)
        np.put_along_axis(d_full, order, d_sel, axis=1)

        d_logits = full * (d_full - np.sum(d_full * full, axis=1, keepdims=True))
        grads["router.weights"] = x_rows.T @ d_logits
        d_x = d_x + d_logits @ self.router.weights.T
        return d_x, grads

    # -- parameter access -----------------------------------------------------

    def trainable(self) -> dict[str, Array]:
        out: dict[str, Array] = {}
        for i, e in enumerate(self.experts):
            out[f"expert{i}.down"] = e.down
            out[f"expert{i}.up"] = e.up
        out["router.weights"] = self.router.weights
        return out


def build_mixture(d_in: int, d_ff: int, w1: Array, w2: Array, n_experts: int,
                  top_k: int, rank: int, alpha: float, seed: int,
                  layer_index: int) -> MixtureFfn:
    """Construct a decorated FFN with per-component derived initialization."""
    from . import seeding

    experts = [
        LoraExpert.init(d_in, d_ff, rank, alpha,
                        seeding.rng_for(seed, seeding.EXPERT, layer_index, i))
        for i in range(n_experts)
    ]
    router_rng = seeding.rng_for(seed, seeding.ROUTER, layer_index)
    router = Router(weights=router_rng.normal(0.0, 0.02, size=(d_in, n_experts)))
    return MixtureFfn(w1=w1, w2=w2, experts=experts, router=router, top_k=top_k)
