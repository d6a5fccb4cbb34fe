import json

import numpy as np

from loramix.experiments import (COPY_COLORS, FORGETTING_MODEL,
                                 FORGETTING_MIXTURE, FORGETTING_SINGLE,
                                 ForgettingResult, ForgettingTrial,
                                 build_copy_fixture, make_task_a, make_task_b,
                                 room_question, room_sentence, task_recall)
from loramix.model import ToyCausalLm, ToyModelConfig
from loramix.retrieval import TrigramEmbedder, retrieve


class TestTaskFixtures:
    def test_sixteen_items_each(self):
        assert len(make_task_a()) == 16
        assert len(make_task_b()) == 16

    def test_prompt_scaffolds_disjoint(self):
        # the two phases must not share a surface template, or phase B
        # would keep rehearsing phase A's format
        a_prompts = {e.prompt for e in make_task_a()}
        b_prompts = {e.prompt for e in make_task_b()}
        assert all(p.startswith("Q:") for p in a_prompts)
        assert all(p.startswith("CODE[") for p in b_prompts)

    def test_matched_budget_within_four_percent(self):
        d_model, d_ff = FORGETTING_MODEL["d_model"], FORGETTING_MODEL["d_ff"]
        mixture = FORGETTING_MIXTURE.n_experts * FORGETTING_MIXTURE.rank \
            * (d_model + d_ff) + d_model * FORGETTING_MIXTURE.n_experts
        single = FORGETTING_SINGLE.rank * (d_model + d_ff)
        assert abs(mixture - single) / max(mixture, single) < 0.04

    def test_same_scale_factor(self):
        assert FORGETTING_MIXTURE.alpha / FORGETTING_MIXTURE.rank == \
            FORGETTING_SINGLE.alpha / FORGETTING_SINGLE.rank

    def test_task_recall_range(self):
        cfg = ToyModelConfig(vocab_size=256, d_model=16, n_layers=1,
                             n_heads=2, d_ff=32, max_seq_len=64, seed=0)
        model = ToyCausalLm(cfg)
        score = task_recall(model, make_task_a()[:3], TrigramEmbedder(256))
        assert 0.0 <= score <= 1.0


class TestForgettingBookkeeping:
    def trials(self, retentions):
        out = []
        for seed, (m, s) in enumerate(retentions):
            out.append(ForgettingTrial(seed=seed, kind="mixture",
                                       ra_a_after_a=1.0, ra_a_after_b=m,
                                       ra_b_after_b=1.0))
            out.append(ForgettingTrial(seed=seed, kind="single",
                                       ra_a_after_a=1.0, ra_a_after_b=s,
                                       ra_b_after_b=1.0))
        return out

    def test_win_counting(self):
        result = ForgettingResult(
            trials=self.trials([(0.5, 0.4), (0.2, 0.2), (0.1, 0.3),
                                (0.6, 0.1), (0.0, 0.2)]))
        assert (result.wins, result.losses, result.ties) == (2, 2, 1)
        assert not result.passed

    def test_ties_count_for_neither_arm(self):
        def result(wins, losses, ties):
            return ForgettingResult(trials=self.trials(
                [(0.3, 0.1)] * wins + [(0.0, 0.2)] * losses
                + [(0.0, 0.0)] * ties))

        one_each = result(1, 1, 3)
        assert (one_each.wins, one_each.losses, one_each.ties) == (1, 1, 3)
        assert not one_each.passed
        assert result(1, 0, 4).passed
        assert not result(0, 0, 5).passed
        payload = json.loads(one_each.to_json())
        assert (payload["wins"], payload["losses"], payload["ties"]) == \
            (1, 1, 3)
        assert "more on 1, less on 1 and as much on 3 of 5" in \
            one_each.summary()

    def test_two_wins_is_a_miss(self):
        result = ForgettingResult(
            trials=self.trials([(0.1, 0.4), (0.2, 0.3), (0.1, 0.3),
                                (0.6, 0.1), (0.5, 0.2)]))
        assert result.wins == 2
        assert not result.passed

    def test_summary_lists_every_seed(self):
        result = ForgettingResult(
            trials=self.trials([(0.5, 0.4), (0.2, 0.2)]))
        text = result.summary()
        assert "seed" in text
        for token in ("0", "1", "mixture", "single"):
            assert token in text


class TestCopyFixture:
    def test_shapes(self):
        fx = build_copy_fixture(seed=0)
        assert len(fx.train_examples) == 256
        assert len(fx.test_records) == 6
        for r in fx.test_records:
            assert r.ground_truth in COPY_COLORS
            assert r.context_id in fx.index.chunks

    def test_sentence_template(self):
        assert room_sentence("lamp", "attic", "teal") == \
            "The lamp in the attic is teal."
        assert room_question("lamp", "attic") == \
            "What color is the lamp in the attic?"

    def test_test_rooms_retrieve_golden_only(self):
        # the retrieval threshold is tuned so every held-out question
        # pulls back exactly its own room's sentence
        fx = build_copy_fixture(seed=0)
        emb = TrigramEmbedder(dim=256)
        for r in fx.test_records:
            hits = fx.index.retrieve(r.q, fx.retrieval, emb)
            assert [h.chunk_id for h in hits] == [r.context_id]
