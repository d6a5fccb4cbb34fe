import json

import numpy as np
import pytest

from loramix import training
from loramix.errors import ConfigError, FormatError, ShapeError, StateError
from loramix.model import AdapterSpec, ToyCausalLm, ToyModelConfig, encode_text
from loramix.training import (TrainConfig, TrainExample, batch_loss,
                              encode_example, format_qa, gradient_check,
                              load_checkpoint, loss_and_grads,
                              save_checkpoint, train, write_loss_csv,
                              _read_arrays, _write_arrays)

from conftest import ONE_EXPERT, TINY_ADAPTERS, TINY_CFG


COLOR_PAIRS = [("the sky", "blue"), ("grass", "green"), ("the sun", "yellow"),
               ("coal", "black"), ("snow", "white"), ("a ruby", "red"),
               ("the sea", "navy"), ("a plum", "purple")]

COLOR_EXAMPLES = [TrainExample(prompt=f"Q: what color is {obj}?\nA: ",
                               answer=color)
                  for obj, color in COLOR_PAIRS]


def small_lm(seed=0, d_model=16, d_ff=32, layers=1, adapters=None):
    cfg = ToyModelConfig(vocab_size=256, d_model=d_model, n_layers=layers,
                         n_heads=2, d_ff=d_ff, max_seq_len=64, seed=seed)
    spec = adapters or AdapterSpec(n_experts=2, top_k=1, rank=2, alpha=4.0)
    return ToyCausalLm(cfg, spec)


class TestEncodeExample:
    def test_mask_covers_answer_and_newline(self):
        ids, mask = encode_example(TrainExample("Q: hi\nA: ", "yo"), 64)
        assert len(ids) == len(mask)
        # answer is "yo" plus the newline terminator
        assert mask.sum() == 3
        assert not mask[: len(ids) - 3].any()

    def test_long_sequence_keeps_tail(self):
        ids, mask = encode_example(TrainExample("x" * 100, "ab"), 32)
        assert len(ids) == 32
        assert mask.sum() == 3

    def test_format_qa_template(self):
        ex = format_qa("why?", "because")
        assert ex.prompt.endswith("A: ")
        assert "why?" in ex.prompt
        assert ex.answer == "because"


class TestTrainLoop:
    def test_zero_epochs_is_noop(self):
        model = small_lm()
        before = {k: v.copy() for k, v in model.trainable_params().items()}
        res = train(model, COLOR_EXAMPLES,
                    TrainConfig(epochs=0))
        assert res.steps == 0
        assert res.loss_trace == []
        for name, arr in model.trainable_params().items():
            assert np.array_equal(arr, before[name]), name

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            train(small_lm(), [], TrainConfig(epochs=1))

    def test_same_seed_same_trajectory(self):
        def run():
            model = small_lm()
            cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=5)
            res = train(model, COLOR_EXAMPLES, cfg)
            return res.loss_trace, model.trainable_params()

        trace_a, params_a = run()
        trace_b, params_b = run()
        assert trace_a == trace_b
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_base_weights_never_move(self):
        model = small_lm()
        sha = model.base_weight_sha256()
        train(model, COLOR_EXAMPLES,
              TrainConfig(lr=1e-2, batch_size=4, epochs=3))
        assert model.base_weight_sha256() == sha

    def test_blown_up_lr_stops_on_non_finite_loss(self):
        model = small_lm()
        cfg = TrainConfig(lr=1e300, batch_size=4, epochs=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(StateError, match="epoch 1, step 2"):
            train(model, COLOR_EXAMPLES, cfg)

    def test_non_finite_loss_applies_no_update(self, monkeypatch):
        model = small_lm()
        real = training.loss_and_grads
        seen = []

        def nan_on_second_step(m, batch):
            loss, grads = real(m, batch)
            seen.append({n: a.copy() for n, a in m.trainable_params().items()})
            return (float("nan") if len(seen) == 2 else loss), grads

        monkeypatch.setattr(training, "loss_and_grads", nan_on_second_step)
        with pytest.raises(StateError, match="non-finite loss nan at epoch 0, "
                                             "step 1"):
            train(model, COLOR_EXAMPLES,
                  TrainConfig(lr=1e-2, batch_size=4, epochs=2))
        for name, arr in model.trainable_params().items():
            assert np.array_equal(arr, seen[1][name]), name

    def test_memorization_fixture(self):
        # pinned fixture: eight QA pairs, 200 full-batch steps at lr 1e-3
        # drive the masked loss to under a fifth of its initial value
        # (observed ratio 0.086 on this exact seed and shape)
        cfg = ToyModelConfig(vocab_size=256, d_model=64, n_layers=2,
                             n_heads=2, d_ff=128, max_seq_len=64, seed=7)
        spec = AdapterSpec(n_experts=4, top_k=2, rank=8, alpha=16.0)
        model = ToyCausalLm(cfg, spec)
        enc = [encode_example(e, cfg.max_seq_len) for e in COLOR_EXAMPLES]
        initial = batch_loss(model, enc)
        res = train(model, COLOR_EXAMPLES,
                    TrainConfig(lr=1e-3, batch_size=8, epochs=200, seed=7))
        final = batch_loss(model, enc)
        assert res.steps == 200
        assert final < 0.2 * initial

    def test_loss_trend_across_seeds(self):
        # epoch-level loss should be non-increasing in at least 9 of 10
        # short seeded runs (full-batch, so one trace entry per epoch)
        monotone = 0
        for seed in range(10):
            model = small_lm(seed=seed)
            res = train(model, COLOR_EXAMPLES,
                        TrainConfig(lr=1e-3, batch_size=8, epochs=4,
                                    seed=seed))
            tr = res.loss_trace
            if all(tr[i + 1] <= tr[i] + 1e-9 for i in range(len(tr) - 1)):
                monotone += 1
        assert monotone >= 9


class TestBatchLoss:
    def test_equals_training_loss_bitwise(self):
        # the gradient audit differentiates batch_loss, so it must be the
        # very scalar that loss_and_grads reports and training follows
        lm = small_lm(layers=2, adapters=AdapterSpec(n_experts=4, top_k=2,
                                                     rank=2, alpha=4.0))
        batch = [encode_example(ex, 64) for ex in COLOR_EXAMPLES]
        assert batch_loss(lm, batch) == loss_and_grads(lm, batch)[0]

    def test_unsupervised_batch_rejected(self):
        ids, mask = encode_example(COLOR_EXAMPLES[0], 64)
        with pytest.raises(ValueError):
            batch_loss(small_lm(), [(ids, np.zeros_like(mask))])


class TestTrainConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_lr(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            AdapterSpec(alpha=alpha)

    def test_bad_top_k(self):
        with pytest.raises(ConfigError):
            AdapterSpec(n_experts=2, top_k=3)

    def test_negative_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)


class TestGradientCheck:
    def test_small_model_passes(self):
        model = small_lm(d_model=8, d_ff=16)
        err = gradient_check(model, TrainExample("Q: hm?\nA: ", "ok"))
        assert err <= 1e-5

    def test_one_expert_router_gets_exact_zero_gradient(self):
        model = small_lm(d_model=8, d_ff=16, layers=2, adapters=ONE_EXPERT)
        ex = TrainExample("Q: hm?\nA: ", "ok")
        assert gradient_check(model, ex) <= 1e-5
        _, grads = loss_and_grads(model, [encode_example(ex, 64)])
        routers = [name for name in grads if name.endswith(".router")]
        assert len(routers) == 2
        for name in routers:
            assert not np.any(grads[name]), name

    def test_oversized_model_refused(self):
        big = ToyCausalLm(
            ToyModelConfig(vocab_size=256, d_model=64, n_layers=2, n_heads=2,
                           d_ff=128, max_seq_len=64, seed=0),
            AdapterSpec(n_experts=8, top_k=2, rank=8, alpha=16.0))
        with pytest.raises(ConfigError):
            gradient_check(big, TrainExample("a", "b"))


class TestCheckpoints:
    def test_round_trip_preserves_behavior(self, tmp_path):
        model = small_lm()
        train(model, COLOR_EXAMPLES[:4],
              TrainConfig(lr=1e-3, batch_size=4, epochs=2))
        save_checkpoint(tmp_path / "ckpt", model)
        loaded = load_checkpoint(tmp_path / "ckpt")
        tokens = [81, 58, 32, 104, 105]
        assert np.array_equal(loaded.forward(tokens), model.forward(tokens))

    @pytest.mark.parametrize("spec", [
        AdapterSpec(n_experts=3, top_k=2, rank=2, alpha=4.0),
        AdapterSpec(n_experts=1, top_k=1, rank=3, alpha=6.0),
        None,
    ], ids=["mixture", "single", "none"])
    def test_round_trip_is_bitwise_per_adapter_kind(self, tmp_path, spec):
        cfg = ToyModelConfig(vocab_size=256, d_model=16, n_layers=2,
                             n_heads=2, d_ff=32, max_seq_len=64, seed=2)
        model = ToyCausalLm(cfg, spec)
        if spec is not None:
            train(model, COLOR_EXAMPLES[:4], TrainConfig(
                lr=1e-2, batch_size=4, epochs=3, seed=2))
            assert all(np.any(arr != 0)
                       for arr in model.trainable_params().values())
        save_checkpoint(tmp_path / "ckpt", model)
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == \
            ["model_config.json", "weights.bin"]
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.adapters == spec
        params = model.trainable_params()
        assert loaded.trainable_params().keys() == params.keys()
        for name, arr in loaded.trainable_params().items():
            assert np.array_equal(arr, params[name]), name
        assert loaded.base_weight_sha256() == model.base_weight_sha256()
        tokens = encode_text("Q: what color is coal?\nA: ")
        assert np.array_equal(loaded.forward(tokens), model.forward(tokens))
        assert loaded.generate(tokens, max_new_tokens=12) == \
            model.generate(tokens, max_new_tokens=12)

    @pytest.mark.parametrize("spec", [
        AdapterSpec(n_experts=2, top_k=1, rank=2, alpha=4.0),
        ONE_EXPERT,
        None,
    ], ids=["mixture", "single", "none"])
    def test_ffn_base_shapes_checked_against_config(self, tmp_path, spec):
        # A consistent (8, 16) / (16, 8) FFN pair is still the wrong size
        # for a d_ff of 32.
        cfg = ToyModelConfig(vocab_size=256, d_model=16, n_layers=1,
                             n_heads=2, d_ff=32, max_seq_len=64, seed=0)
        save_checkpoint(tmp_path, ToyCausalLm(cfg, spec))
        arrays = dict(_read_arrays(tmp_path / "weights.bin"))
        arrays["block0.ffn.w1"] = arrays["block0.ffn.w1"][:8]
        arrays["block0.ffn.w2"] = arrays["block0.ffn.w2"][:, :8]
        _write_arrays(tmp_path / "weights.bin", arrays)
        with pytest.raises(ShapeError, match="expected"):
            load_checkpoint(tmp_path)

    def test_undecorated_checkpoint_rejects_adapter_fields(self, tmp_path):
        cfg = ToyModelConfig(vocab_size=256, d_model=16, n_layers=1,
                             n_heads=2, d_ff=32, max_seq_len=64, seed=0)
        save_checkpoint(tmp_path, ToyCausalLm(cfg, None))
        path = tmp_path / "model_config.json"
        payload = json.loads(path.read_text())
        assert payload.keys() == {"model", "adapter", "base_sha256"}
        assert payload["adapter"] is None
        payload["adapter"] = {"x": 1}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="adapter"):
            load_checkpoint(tmp_path)

    def test_single_adapter_kind_is_unknown(self, tmp_path):
        save_checkpoint(tmp_path, small_lm())
        path = tmp_path / "model_config.json"
        payload = json.loads(path.read_text())
        payload["adapter_kind"] = "single"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=r"unknown \['adapter_kind'\]"):
            load_checkpoint(tmp_path)

    def test_config_without_base_digest_refused(self, tmp_path):
        save_checkpoint(tmp_path, small_lm())
        path = tmp_path / "model_config.json"
        payload = json.loads(path.read_text())
        assert payload.pop("base_sha256") == small_lm().base_weight_sha256()
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="base_sha256"):
            load_checkpoint(tmp_path)

    def test_save_is_deterministic(self, tmp_path):
        model = small_lm()
        save_checkpoint(tmp_path / "a", model)
        save_checkpoint(tmp_path / "b", model)
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_loss_csv_shape(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [2.5, 1.25, 0.75])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 4
        assert lines[1].startswith("0,")
