import os

# One BLAS thread, fixed before numpy is first imported: at these shapes a
# second OpenBLAS thread only spins, and timings then track machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from loramix.model import AdapterSpec, ToyCausalLm, ToyModelConfig
from loramix.retrieval import TrigramEmbedder


TINY_CFG = ToyModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                          d_ff=16, max_seq_len=16, seed=0)

TINY_ADAPTERS = AdapterSpec(n_experts=2, top_k=1, rank=2, alpha=4.0)

# The comparison arm's shape: one expert, so no routing, i.e. one plain
# low-rank adapter. Test ids call it "single", as check 9 labels the arm.
ONE_EXPERT = AdapterSpec(n_experts=1, top_k=1, rank=2, alpha=4.0)


@pytest.fixture(scope="session")
def tiny_model() -> ToyCausalLm:
    """One small adapted model shared by read-only tests."""
    return ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)


@pytest.fixture(scope="session")
def embedder() -> TrigramEmbedder:
    return TrigramEmbedder(dim=256)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
