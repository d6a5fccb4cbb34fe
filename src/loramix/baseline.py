"""Plain single low-rank adapter on a frozen FFN, no routing.

An independent oracle with no production caller: acceptance check 4
trains a one-expert, top-1 mixture against this separate straight-line
implementation and requires the two runs to agree step for step. The
comparison arm of the experiments is that one-expert mixture, not this
class.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .numerics import as_matrix

Array = np.ndarray


class SingleLoraFfn:
    """Frozen two-layer FFN with one rank-r update on its first projection."""

    def __init__(self, w1: Array, w2: Array, down: Array, up: Array,
                 rank: int, alpha: float):
        w1 = np.array(as_matrix(w1, "first projection"), dtype=np.float64)
        w2 = np.array(as_matrix(w2, "second projection"), dtype=np.float64)
        d_ff, d_in = w1.shape
        if w2.shape != (d_in, d_ff):
            raise ShapeError(
                f"second projection must be ({d_in}, {d_ff}), got {w2.shape}"
            )
        down = np.asarray(down, dtype=np.float64)
        up = np.asarray(up, dtype=np.float64)
        if down.shape != (rank, d_in) or up.shape != (d_ff, rank):
            raise ShapeError("adapter factor shapes do not match layer dims")
        w1.setflags(write=False)
        w2.setflags(write=False)
        self.w1 = w1
        self.w2 = w2
        self.down = down
        self.up = up
        self.rank = rank
        self.alpha = alpha

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[0]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def forward_rows(self, x_rows: Array) -> tuple[Array, dict]:
        x_rows = as_matrix(x_rows, "layer input rows")
        if x_rows.shape[1] != self.d_in:
            raise ShapeError(
                f"layer expects rows of length {self.d_in}, got {x_rows.shape[1]}"
            )
        rank_proj = x_rows @ self.down.T
        delta = self.scale * (rank_proj @ self.up.T)
        hidden = x_rows @ self.w1.T + delta
        act = hidden / (1.0 + np.exp(-hidden))
        out = act @ self.w2.T
        return out, {"x": x_rows, "rank_proj": rank_proj, "hidden": hidden}

    def backward_rows(self, cache: dict, upstream_rows: Array
                      ) -> tuple[Array, dict[str, Array]]:
        x_rows = cache["x"]
        hidden = cache["hidden"]
        sig = 1.0 / (1.0 + np.exp(-hidden))
        d_act = upstream_rows @ self.w2
        d_hidden = d_act * (sig * (1.0 + hidden * (1.0 - sig)))
        d_x = d_hidden @ self.w1
        d_delta = d_hidden
        grads = {
            "adapter.up": self.scale * d_delta.T @ cache["rank_proj"],
        }
        d_p = self.scale * (d_delta @ self.up)
        grads["adapter.down"] = d_p.T @ x_rows
        d_x = d_x + d_p @ self.down
        return d_x, grads

    def trainable(self) -> dict[str, Array]:
        return {"adapter.down": self.down, "adapter.up": self.up}
