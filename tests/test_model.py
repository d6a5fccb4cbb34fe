import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loramix.errors import ShapeError
from loramix.model import (AdapterSpec, KvCache, ToyCausalLm, ToyModelConfig,
                           _causal_mask, decode_tokens, encode_text)
from loramix.numerics import softmax_rows
from loramix.training import TrainExample, gradient_check

from conftest import ONE_EXPERT, TINY_ADAPTERS, TINY_CFG


class TestTokenizer:
    def test_ascii_round_trip(self):
        s = "Q: what color is the sky?\nA: blue"
        assert decode_tokens(encode_text(s)) == s

    @given(s=st.text(alphabet=st.characters(min_codepoint=32,
                                            max_codepoint=126),
                     max_size=40))
    def test_printable_round_trip(self, s):
        assert decode_tokens(encode_text(s)) == s

    def test_bytes_not_codepoints(self):
        # multi-byte characters become several tokens, one per byte
        assert len(encode_text("é")) == 2


class TestConstruction:
    def test_same_seed_identical_parameters(self):
        a = ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)
        b = ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)
        for name, arr in a.base_arrays().items():
            assert np.array_equal(arr, b.base_arrays()[name]), name
        for name, arr in a.trainable_params().items():
            assert np.array_equal(arr, b.trainable_params()[name]), name

    def test_different_seed_differs(self):
        cfg2 = ToyModelConfig(**{**TINY_CFG.__dict__, "seed": 1})
        a = ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)
        b = ToyCausalLm(cfg2, adapters=TINY_ADAPTERS)
        assert not np.array_equal(a.wte, b.wte)

    def test_base_sha_is_pinned(self):
        digest = ToyCausalLm(TINY_CFG, adapters=None).base_weight_sha256()
        assert digest == ("267307763d8bec060b727abca559a0a2"
                          "2f90ac83cf1d9462a7833d2827c3acef")

    def test_base_sha_ignores_adapter_choice(self):
        bare = ToyCausalLm(TINY_CFG, adapters=None)
        moe = ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)
        lone = ToyCausalLm(TINY_CFG, adapters=ONE_EXPERT)
        assert bare.base_weight_sha256() == moe.base_weight_sha256()
        assert bare.base_weight_sha256() == lone.base_weight_sha256()

    def test_base_arrays_write_protected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.wte[0, 0] = 1.0

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ToyModelConfig(vocab_size=16, d_model=10, n_layers=1, n_heads=3,
                           d_ff=16, max_seq_len=16)


class TestTrainableParams:
    @pytest.mark.parametrize("n_experts", [1, 4, 8])
    def test_three_tensors_per_adapted_layer(self, n_experts):
        cfg = ToyModelConfig(vocab_size=16, d_model=8, n_layers=2, n_heads=2,
                             d_ff=16, max_seq_len=16, seed=0)
        spec = AdapterSpec(n_experts=n_experts, top_k=1, rank=3, alpha=6.0)
        params = ToyCausalLm(cfg, adapters=spec).trainable_params()
        rows = 3 * n_experts
        assert {name: arr.shape for name, arr in params.items()} == {
            f"block{layer}.{name}": shape for layer in range(2)
            for name, shape in (("down", (rows, 8)), ("up", (rows, 16)),
                                ("router", (8, n_experts)))}


class TestApplyUpdates:
    @pytest.mark.parametrize("spec", [
        TINY_ADAPTERS, ONE_EXPERT, None,
    ], ids=["mixture", "single", "none"])
    def test_writes_trainable_params_in_place(self, spec):
        model = ToyCausalLm(TINY_CFG, adapters=spec)
        params = model.trainable_params()
        rng = np.random.default_rng(3)
        new = {name: rng.normal(size=arr.shape)
               for name, arr in params.items()}
        model.apply_updates(new)
        for name, arr in model.trainable_params().items():
            assert arr is params[name], name
            assert np.array_equal(arr, new[name]), name

    # Retired per-expert names, a base array, a layer the model lacks and
    # a misshaped factor.
    @pytest.mark.parametrize("name,shape", [
        ("block0.expert1.up", (2, 16)),
        ("block0.expert2.up", (16, 2)),
        ("block0.ffn.w1", (16, 8)),
        ("block1.router.weights", (8, 2)),
        ("block0.up", (16, 4)),
    ])
    def test_names_and_shapes_checked(self, name, shape):
        model = ToyCausalLm(TINY_CFG, adapters=TINY_ADAPTERS)
        before = {n: a.copy() for n, a in model.trainable_params().items()}
        with pytest.raises(ShapeError, match=name):
            model.apply_updates({"block0.router": np.ones((8, 2)),
                                 name: np.ones(shape)})
        for n, arr in model.trainable_params().items():
            assert np.array_equal(arr, before[n]), n


class TestForward:
    def test_logit_shape_and_finiteness(self):
        cfg = ToyModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                             d_ff=16, max_seq_len=8, seed=0)
        model = ToyCausalLm(cfg)
        logits = model.forward([1, 2, 3, 4])
        assert logits.shape == (4, 16)
        assert np.all(np.isfinite(logits))

    def test_causality_is_exact(self, tiny_model):
        full = tiny_model.forward([1, 2, 3, 4])
        changed = tiny_model.forward([1, 2, 9, 9])
        assert np.array_equal(full[:2], changed[:2])
        assert not np.array_equal(full[2:], changed[2:])

    def test_empty_sequence_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward([])

    def test_token_out_of_range_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward([0, 16])
        with pytest.raises(ValueError):
            tiny_model.forward([-1])

    def test_over_length_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.forward([0] * 17)
        _, kv = tiny_model.forward([0] * 10, past=KvCache())
        with pytest.raises(ValueError):
            tiny_model.forward([0] * 7, past=kv)

    def test_backward_cache_refuses_past(self, tiny_model):
        _, kv = tiny_model.forward([1, 2], past=KvCache())
        with pytest.raises(ValueError):
            tiny_model.forward([3], with_cache=True, past=kv)

    def test_forward_is_deterministic(self, tiny_model):
        a = tiny_model.forward([5, 6, 7])
        b = tiny_model.forward([5, 6, 7])
        assert np.array_equal(a, b)


class TestGenerate:
    def test_returns_continuation_only(self, tiny_model):
        prompt = [1, 2, 3]
        out = tiny_model.generate(prompt, max_new_tokens=5, stop_token=None)
        assert len(out) == 5
        logits = tiny_model.forward(prompt)
        assert out[0] == int(np.argmax(logits[-1]))

    def test_stop_token_truncates(self, tiny_model):
        # find what the model wants to emit, then declare it the stop token
        nxt = tiny_model.generate([1, 2], max_new_tokens=1, stop_token=None)[0]
        out = tiny_model.generate([1, 2], max_new_tokens=8, stop_token=nxt)
        assert out == []

    def test_deterministic(self, tiny_model):
        a = tiny_model.generate([3, 1, 4], max_new_tokens=6, stop_token=None)
        b = tiny_model.generate([3, 1, 4], max_new_tokens=6, stop_token=None)
        assert a == b

    def test_budget_must_be_positive(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.generate([1], max_new_tokens=0)

    def test_generate_text_round_trip_types(self):
        cfg = ToyModelConfig(vocab_size=256, d_model=8, n_layers=1, n_heads=2,
                             d_ff=16, max_seq_len=32, seed=0)
        model = ToyCausalLm(cfg)
        out = model.generate_text("Q: hi\nA: ", max_new_tokens=4)
        assert isinstance(out, str)
        assert "Q: hi" not in out


# -- cached decoding -----------------------------------------------------------

DECODE_CFG = ToyModelConfig(vocab_size=32, d_model=8, n_layers=2, n_heads=2,
                            d_ff=16, max_seq_len=16, seed=4)


@pytest.fixture(scope="module", params=["frozen", "single", "mixture"])
def decode_model(request) -> ToyCausalLm:
    """Two-layer model whose adapters (if any) carry non-zero weights."""
    spec = {"frozen": None,
            "single": ONE_EXPERT,
            "mixture": AdapterSpec(n_experts=3, top_k=2, rank=2, alpha=4.0),
            }[request.param]
    model = ToyCausalLm(DECODE_CFG, adapters=spec)
    rng = np.random.default_rng(7)
    model.apply_updates({name: rng.normal(0.0, 0.5, size=arr.shape)
                         for name, arr in model.trainable_params().items()})
    return model


def greedy_oracle(model, prompt, max_new_tokens, stop_token):
    """Independent oracle: re-forward the trailing window for every token."""
    window = model.cfg.max_seq_len
    tokens = list(prompt)
    out = []
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(model.forward(tokens[-window:])[-1]))
        if nxt == stop_token:
            break
        out.append(nxt)
        tokens.append(nxt)
    return out


def prompt_of(length, seed=0):
    return [int(t) for t in
            np.random.default_rng(seed).integers(0, DECODE_CFG.vocab_size,
                                                 size=length)]


class TestCachedDecode:
    @pytest.mark.parametrize("prompt_len, max_new", [
        (4, 6),     # well inside the window
        (10, 12),   # crosses max_seq_len while decoding
        (16, 5),    # fills the window exactly, then slides
        (23, 6),    # longer than the window from the start
    ])
    def test_generate_matches_window_oracle(self, decode_model, prompt_len,
                                            max_new):
        prompt = prompt_of(prompt_len, seed=prompt_len)
        out = decode_model.generate(prompt, max_new_tokens=max_new,
                                    stop_token=None)
        assert len(out) == max_new
        assert out == greedy_oracle(decode_model, prompt, max_new, None)

    def test_early_stop_matches_oracle(self, decode_model):
        prompt = prompt_of(6, seed=1)
        free = greedy_oracle(decode_model, prompt, 8, None)
        stop = free[3]
        want = greedy_oracle(decode_model, prompt, 8, stop)
        assert len(want) <= 3
        assert decode_model.generate(prompt, max_new_tokens=8,
                                     stop_token=stop) == want

    def test_incremental_logits_match_full_forward(self, decode_model):
        seq = prompt_of(DECODE_CFG.max_seq_len, seed=2)
        full = decode_model.forward(seq)
        logits, kv = decode_model.forward(seq[:5], past=KvCache())
        rows = [logits]
        for tok in seq[5:]:
            logits, kv = decode_model.forward([tok], past=kv)
            rows.append(logits)
        assert kv.length == len(seq)
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0,
                                   atol=1e-12)

    def test_empty_past_is_plain_forward(self, decode_model):
        seq = prompt_of(9, seed=3)
        plain = decode_model.forward(seq)
        logits, kv = decode_model.forward(seq, past=KvCache())
        cached, _ = decode_model.forward(seq, with_cache=True)
        assert np.array_equal(logits, plain)
        assert np.array_equal(cached, plain)
        assert len(kv.keys) == len(kv.values) == DECODE_CFG.n_layers
        assert kv.keys[0].shape == (9, DECODE_CFG.d_model)

    def test_positions_forwarded_per_generate(self, decode_model,
                                              monkeypatch):
        positions = []
        real = ToyCausalLm.forward

        def spy(self, tokens, *args, **kwargs):
            positions.append(len(tokens))
            return real(self, tokens, *args, **kwargs)

        monkeypatch.setattr(ToyCausalLm, "forward", spy)
        prompt = prompt_of(7, seed=4)
        out = decode_model.generate(prompt, max_new_tokens=8, stop_token=None)
        assert len(prompt) + len(out) <= DECODE_CFG.max_seq_len
        assert sum(positions) <= len(prompt) + len(out)


# -- training-step work --------------------------------------------------------

class TestTrainingStepWork:
    @pytest.mark.parametrize("spec", [
        AdapterSpec(n_experts=3, top_k=2, rank=2, alpha=4.0),
        ONE_EXPERT,
        None,
    ], ids=["mixture", "single", "none"])
    def test_cache_keeps_only_what_backward_reads(self, spec):
        model = ToyCausalLm(DECODE_CFG, adapters=spec)
        _, cache = model.forward(prompt_of(9), with_cache=True)
        assert len(cache["blocks"]) == DECODE_CFG.n_layers
        assert set(cache["blocks"][0]) == {"ff_cache"}
        upper = {"ff_cache"} if spec is None else {
            "x", "r1", "q", "k", "v", "heads", "x_attn", "r2", "ff_cache"}
        assert set(cache["blocks"][1]) == upper

    def test_undecorated_backward_is_empty(self):
        model = ToyCausalLm(DECODE_CFG, adapters=None)
        logits, cache = model.forward(prompt_of(9), with_cache=True)
        assert model.backward(cache, np.ones_like(logits)) == {}

    @pytest.mark.parametrize("t, start", [
        (1, 0), (5, 0), (16, 0), (1, 4), (1, 15), (3, 7), (12, 4)])
    def test_causal_mask_slice(self, t, start):
        mask = _causal_mask(16)[start:start + t, :start + t]
        want = np.triu(np.full((t, start + t), -np.inf), k=start + 1)
        assert np.array_equal(mask, want)
        assert not mask.flags.writeable

    def test_softmax_rows_in_place_matches_formula(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(12, 12)) * 3.0
        scores += _causal_mask(12)
        before = scores.copy()
        shifted = scores - np.max(scores, axis=-1, keepdims=True)
        e = np.exp(shifted)
        want = e / np.sum(e, axis=-1, keepdims=True)
        got = softmax_rows(scores)
        assert np.array_equal(scores, before)
        assert np.array_equal(got, want)

    def test_gradients_flow_through_upper_attention(self):
        # Three layers: the lower two blocks' FFN gradients pass through
        # the attention of every block above them.
        lm = ToyCausalLm(
            ToyModelConfig(vocab_size=32, d_model=4, n_layers=3, n_heads=2,
                           d_ff=8, max_seq_len=16, seed=0),
            AdapterSpec(n_experts=3, top_k=2, rank=2, alpha=4.0))
        ex = TrainExample(prompt=chr(17) + chr(18) + chr(19), answer=chr(20))
        assert gradient_check(lm, ex) <= 1e-5
