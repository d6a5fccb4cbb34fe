import json
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loramix.curation import QaRecord, StubGenerator
from loramix.errors import ConfigError, EvaluationError, FormatError
from loramix.evaluation import (EvalConfig, EvalReport, HttpJudgeClient,
                                RaWeights, Scenario, StubJudge,
                                classify_scenario, compute_fl,
                                compute_qr, compute_ra, compute_rr,
                                detect_refusal, evaluate, score_context,
                                statement_f1)
from loramix.retrieval import (CorpusIndex, RetrievalConfig, TrigramEmbedder,
                               split_recursive)
from test_curation import FlakyUrlopen

GOLDEN_PATH = Path(__file__).parent / "data" / "ra_golden.json"

ids = st.sampled_from(["c0", "c1", "c2", "c3"])


class TestClassifyScenario:
    def test_only_golden(self):
        assert classify_scenario(["c"], "c") is Scenario.GOLDEN_CONTEXT

    def test_golden_among_others(self):
        assert classify_scenario(["c", "d", "e"], "c") is \
            Scenario.MIXED_CONTEXT

    def test_empty(self):
        assert classify_scenario([], "c") is Scenario.EMPTY_CONTEXT

    def test_golden_absent(self):
        assert classify_scenario(["d"], "c") is Scenario.IRRELEVANT_CONTEXT

    @given(retrieved=st.lists(ids, max_size=4, unique=True), golden=ids)
    def test_partition_is_total(self, retrieved, golden):
        s = classify_scenario(retrieved, golden)
        # re-derive by first principles; exactly one case may fire
        cases = [not retrieved,
                 bool(retrieved) and golden not in retrieved,
                 retrieved == [golden] or (len(retrieved) == 1
                                           and golden in retrieved),
                 golden in retrieved and len(retrieved) > 1]
        assert sum(cases) == 1
        expected = [Scenario.EMPTY_CONTEXT, Scenario.IRRELEVANT_CONTEXT,
                    Scenario.GOLDEN_CONTEXT,
                    Scenario.MIXED_CONTEXT][cases.index(True)]
        assert s is expected


class TestRefusal:
    def test_plain_refusal(self):
        assert detect_refusal("I don't know")

    def test_substantive_answer(self):
        assert not detect_refusal("The answer is 42.")

    def test_normalization(self):
        assert detect_refusal("i don't know.")
        assert detect_refusal("I DO NOT KNOW, sorry")

    def test_refusal_must_lead(self):
        assert not detect_refusal("Honestly, I don't know")

    def test_rr_ratios(self):
        assert compute_rr(["I don't know", "i do not know",
                           "I don't know!", "It is blue."]) == 0.75
        assert compute_rr(["I don't know"] * 3) == 1.0
        assert compute_rr([]) is None


class TestStatementF1:
    def test_identical(self):
        assert statement_f1("a b c", "a b c") == (3, 0, 0, 1.0)

    def test_disjoint(self):
        tp, fp, fn, f1 = statement_f1("a b", "c d")
        assert (tp, f1) == (0, 0.0)

    def test_pinned_half_overlap(self):
        assert statement_f1("a b x y", "a b c d") == (2, 2, 2, 0.5)

    def test_both_empty_is_perfect(self):
        assert statement_f1("", "!!!") == (0, 0, 0, 1.0)

    def test_multiset_counting(self):
        tp, fp, fn, f1 = statement_f1("go go go", "go go stop")
        assert (tp, fp, fn) == (2, 1, 1)

    @given(a=st.text(alphabet="abc ", max_size=20),
           b=st.text(alphabet="abc ", max_size=20))
    def test_swap_exchanges_fp_fn(self, a, b):
        tp1, fp1, fn1, f11 = statement_f1(a, b)
        tp2, fp2, fn2, f12 = statement_f1(b, a)
        assert (tp1, fp1, fn1) == (tp2, fn2, fp2)
        assert f11 == f12


class FixedPairEmbedder:
    """Maps two known texts onto vectors with a chosen cosine."""

    def __init__(self, answer, truth, cos):
        self.table = {answer: np.array([1.0, 0.0]),
                      truth: np.array([cos, np.sqrt(max(0.0, 1 - cos * cos))])}

    def embed(self, text):
        return self.table[text]


class TestComputeRa:
    def test_identity(self, embedder):
        v = compute_ra("The pump moves water.", "The pump moves water.",
                       RaWeights(), embedder)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_token_weight_only_equals_f1(self, embedder):
        v = compute_ra("blue and gold", "blue and teal",
                       RaWeights(token_weight=1.0, embedding_weight=0.0),
                       embedder)
        assert v == statement_f1("blue and gold", "blue and teal")[3]

    def test_golden_file(self, embedder):
        cases = json.loads(GOLDEN_PATH.read_text())
        assert len(cases) == 20
        for case in cases:
            w = RaWeights(token_weight=case["token_weight"],
                          embedding_weight=case["embedding_weight"])
            if case["cos"] is None:
                emb = embedder
            else:
                emb = FixedPairEmbedder(case["answer"], case["truth"],
                                        case["cos"])
            got = compute_ra(case["answer"], case["truth"], w, emb)
            assert got == pytest.approx(case["expected"], abs=1e-12), case

    def test_weights_validated(self):
        with pytest.raises(ConfigError):
            RaWeights(token_weight=-1.0)
        with pytest.raises(ConfigError):
            RaWeights(token_weight=0.0, embedding_weight=0.0)

    @given(f_w=st.floats(0.1, 5), e_w=st.floats(0.1, 5))
    def test_stays_in_unit_interval(self, embedder, f_w, e_w):
        v = compute_ra("the gate", "a gate opens",
                       RaWeights(token_weight=f_w, embedding_weight=e_w),
                       embedder)
        assert 0.0 <= v <= 1.0


class SequenceGenerator:
    """Hands out canned question payloads in order."""

    def __init__(self, questions):
        self.queue = list(questions)

    def complete(self, messages):
        return json.dumps({"question": self.queue.pop(0)})


class DictEmbedder:
    def __init__(self, table):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    def embed(self, text):
        return self.table[text]


class TestComputeQr:
    def test_stub_round_trip_is_one(self, embedder):
        # the stub regenerates exactly this question from the response
        v = compute_qr("What does the router use?",
                       "The router uses softmax gating.", None,
                       StubGenerator(), embedder)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_regeneration_is_zero(self, embedder):
        v = compute_qr("aaa bbb", "whatever response", None,
                       SequenceGenerator(["ccc ddd"]), embedder)
        assert v == 0.0

    def test_two_sample_mean(self):
        emb = DictEmbedder({"orig": [1.0, 0.0],
                            "r1": [0.6, 0.8],
                            "r2": [0.8, 0.6]})
        v = compute_qr("orig", "resp", None,
                       SequenceGenerator(["r1", "r2"]), emb, m=2)
        assert v == pytest.approx(0.7, abs=1e-12)

    def test_m_must_be_positive(self, embedder):
        with pytest.raises(ValueError):
            compute_qr("q", "r", None, StubGenerator(), embedder, m=0)


class FixedJudge:
    def __init__(self, value):
        self.value = value

    def score(self, prompt):
        return self.value


class FailingJudge:
    def score(self, prompt):
        raise RuntimeError("judge endpoint down")


class TestHttpJudgeClient:
    @staticmethod
    def judge(monkeypatch, content: str) -> HttpJudgeClient:
        body = json.dumps({"choices": [{"message": {"content": content}}]})
        monkeypatch.setattr(urllib.request, "urlopen",
                            FlakyUrlopen(failures=0,
                                         body=body.encode("utf-8")))
        return HttpJudgeClient("http://localhost:9/judge")

    @pytest.mark.parametrize("content,score", [
        ("1", 1.0), ("0.25", 0.25), ("Score: 0.7", 0.7)])
    def test_lone_unit_number_is_the_score(self, monkeypatch, content, score):
        assert self.judge(monkeypatch, content).score("prompt") == score

    @pytest.mark.parametrize("content", [
        pytest.param("0.25, or maybe 0.9", id="two-numbers"),
        pytest.param("Score: 7 out of 10", id="out-of-ten"),
        pytest.param("-0.5", id="negative"),
        pytest.param("1. The response is unfaithful: 0.2",
                     id="numbered-list"),
    ])
    def test_other_replies_are_format_errors(self, monkeypatch, content):
        with pytest.raises(FormatError) as exc:
            self.judge(monkeypatch, content).score("prompt")
        assert exc.value.payload == content

    def test_reply_without_number_is_a_format_error(self, monkeypatch):
        with pytest.raises(FormatError, match="no number") as exc:
            self.judge(monkeypatch, "excellent").score("prompt")
        assert exc.value.payload == "excellent"


class TestComputeFl:
    def test_two_judge_mean(self):
        v = compute_fl("Any sentence.", [FixedJudge(0.8), FixedJudge(1.0)])
        assert v == pytest.approx(0.9, abs=1e-12)

    def test_single_judge_passthrough(self):
        assert compute_fl("Any sentence.", [FixedJudge(0.35)]) == \
            pytest.approx(0.35)

    def test_stub_judge_pins(self):
        judge = StubJudge()
        assert compute_fl("The router mixes experts.", [judge]) == \
            pytest.approx(0.85, abs=1e-12)
        assert compute_fl("ok", [judge]) == pytest.approx(0.0375, abs=1e-12)
        assert compute_fl("no cap", [judge]) == pytest.approx(0.075,
                                                             abs=1e-12)

    def test_two_stub_judges_average_to_single(self):
        text = "A perfectly fine sentence here."
        single = compute_fl(text, [StubJudge()])
        double = compute_fl(text, [StubJudge(), StubJudge()])
        assert single == pytest.approx(0.8875, abs=1e-12)
        assert double == pytest.approx(single, abs=1e-15)

    def test_partial_failure_skips_and_reports(self):
        seen = []
        v = compute_fl("Fine text here.", [FailingJudge(), FixedJudge(0.5)],
                       on_failure=seen.append)
        assert v == pytest.approx(0.5)
        assert len(seen) == 1

    def test_all_failing_raises(self):
        with pytest.raises(EvaluationError):
            compute_fl("Fine text.", [FailingJudge(), FailingJudge()])

    def test_no_judges_rejected(self):
        with pytest.raises(ValueError):
            compute_fl("Fine text.", [])


def make_record(q="What does the pump move?", context_id="pumps:0000",
                retrieved=None, open_response=None,
                ground_truth="The pump moves water."):
    return QaRecord(q=q, context_id=context_id,
                    retrieved=retrieved if retrieved is not None else [],
                    ground_truth=ground_truth, domain_tag="test",
                    open_response=open_response)


class PromptLog:
    """Judge that records each prompt and scores it 0.5."""

    def __init__(self):
        self.prompts = []

    def score(self, prompt):
        self.prompts.append(prompt)
        return 0.5


class TestFaithFilter:
    CHUNKS = {"pumps:0000": "The pump moves water. It hums quietly.",
              "noise:0000": "Valves stop flow."}

    def resolver(self, cid):
        return self.CHUNKS[cid]

    def test_containment_scores_one(self):
        r = make_record(retrieved=["pumps:0000"],
                        open_response="Indeed, The pump moves water.")
        assert score_context(r, StubJudge(), self.resolver) == 1.0

    def test_contradiction_scores_zero(self):
        r = make_record(retrieved=["pumps:0000"],
                        open_response="The pump eats sand.")
        assert score_context(r, StubJudge(), self.resolver) == 0.0

    def test_faith_requires_golden_scenario(self):
        # The Faith prompt goes only to golden-context records; a record
        # whose hits miss the golden chunk has no context to score.
        judge = PromptLog()
        golden = make_record(retrieved=["pumps:0000"], open_response="x")
        score_context(golden, judge, self.resolver)
        (faith,) = judge.prompts
        assert "### DISTRACTORS" not in faith
        assert self.CHUNKS["pumps:0000"] in faith
        irrelevant = make_record(retrieved=["noise:0000"], open_response="x")
        with pytest.raises(ValueError):
            score_context(irrelevant, StubJudge(), self.resolver)

    def test_filter_requires_mixed_scenario(self):
        # The Filter prompt goes only to mixed-context records, with the
        # other hits as distractors; an empty retrieval is refused.
        judge = PromptLog()
        mixed = make_record(retrieved=["noise:0000", "pumps:0000"],
                            open_response="x")
        score_context(mixed, judge, self.resolver)
        (filt,) = judge.prompts
        assert ("### CONTEXT\nThe pump moves water. It hums quietly.\n"
                "### DISTRACTORS\nValves stop flow.\n") in filt
        empty = make_record(retrieved=[], open_response="x")
        with pytest.raises(ValueError):
            score_context(empty, StubJudge(), self.resolver)

    def test_filter_scores_mixed_record(self):
        r = make_record(retrieved=["pumps:0000", "noise:0000"],
                        open_response="The pump moves water.")
        assert score_context(r, StubJudge(), self.resolver) == 1.0

    def test_missing_response_rejected(self):
        r = make_record(retrieved=["pumps:0000"], open_response=None)
        with pytest.raises(ValueError):
            score_context(r, StubJudge(), self.resolver)


class CannedModel:
    """generate_text returns a fixed string regardless of the prompt."""

    def __init__(self, text="The pump moves water."):
        self.text = text

    def generate_text(self, prompt, max_new_tokens=48):
        return self.text


def fixture_index(embedder):
    idx = CorpusIndex(dim=256)
    cfg = RetrievalConfig(target_size=500, overlap=0)
    for doc_id, body in [("pumps", "The pump moves water."),
                         ("valves", "The valve stops flow."),
                         ("pipes", "The pipe carries liquid."),
                         ("tanks", "The tank stores rainwater."),
                         ("gauges", "The gauge reads pressure."),
                         ("mirrors", "The mirror reflects images.")]:
        for chunk in split_recursive(body, doc_id, cfg):
            idx.add_chunk(chunk, embedder.embed(chunk.text))
    return idx


def designed_records():
    """Two golden, two mixed, one irrelevant, one empty."""
    return [
        make_record(q="about pumps", context_id="pumps:0000",
                    retrieved=["pumps:0000"]),
        make_record(q="about valves", context_id="valves:0000",
                    retrieved=["valves:0000"],
                    ground_truth="The valve stops flow."),
        make_record(q="about pipes", context_id="pipes:0000",
                    retrieved=["pipes:0000", "tanks:0000"],
                    ground_truth="The pipe carries liquid."),
        make_record(q="about tanks", context_id="tanks:0000",
                    retrieved=["tanks:0000", "pumps:0000"],
                    ground_truth="The tank stores rainwater."),
        make_record(q="about gauges", context_id="gauges:0000",
                    retrieved=["mirrors:0000"],
                    ground_truth="The gauge reads pressure."),
        make_record(q="about mirrors", context_id="mirrors:0000",
                    retrieved=[],
                    ground_truth="The mirror reflects images."),
    ]


class TestEvaluate:
    def eval_cfg(self, embedder, **overrides):
        base = dict(embedder=embedder, index=fixture_index(embedder),
                    judges=[StubJudge()], generator=StubGenerator(),
                    use_stored_retrieval=True)
        base.update(overrides)
        return EvalConfig(**base)

    # Reports of the designed records with a failing first judge, byte for
    # byte. The order of failures is part of what is pinned.
    PINNED_REPORTS = {
        "open": (
            '{"failures": ["record 0: judge endpoint down", '
            '"record 1: judge endpoint down", '
            '"record 2: judge endpoint down", '
            '"record 3: judge endpoint down"], "faith": null, '
            '"filter": null, "fl": null, "mode": "open", '
            '"partial": true, "qr": null, "ra_closed": null, '
            '"ra_open": 0.3687461130135792, "record_count": 6, '
            '"rr": 0.0, "scenario_counts": {"empty_context": 1, '
            '"golden_context": 2, "irrelevant_context": 1, '
            '"mixed_context": 2}}'),
        "closed": (
            '{"failures": [], "faith": null, "filter": null, "fl": null, '
            '"mode": "closed", "partial": false, "qr": null, '
            '"ra_closed": 0.3687461130135792, "ra_open": null, '
            '"record_count": 6, "rr": null, "scenario_counts": {}}'),
        "cross": (
            '{"failures": ["record 0: judge endpoint down", '
            '"record 0: judge endpoint down", '
            '"record 1: judge endpoint down", '
            '"record 1: judge endpoint down", '
            '"record 2: judge endpoint down", '
            '"record 2: judge endpoint down", '
            '"record 3: judge endpoint down", '
            '"record 3: judge endpoint down", '
            '"record 4: judge endpoint down", '
            '"record 4: judge endpoint down", '
            '"record 5: judge endpoint down", '
            '"record 5: judge endpoint down"], "faith": null, '
            '"filter": null, "fl": 0.85, "mode": "cross", '
            '"partial": true, "qr": 0.07106690545187015, '
            '"ra_closed": null, "ra_open": null, "record_count": 6, '
            '"rr": null, "scenario_counts": {"empty_context": 1, '
            '"golden_context": 2, "irrelevant_context": 1, '
            '"mixed_context": 2}}'),
    }

    @pytest.mark.parametrize("mode", ["open", "closed", "cross"])
    def test_report_bytes_pinned(self, embedder, mode):
        cfg = self.eval_cfg(embedder, judges=[FailingJudge(), StubJudge()])
        report = evaluate(designed_records(), CannedModel(), mode, cfg)
        assert report.to_json() == self.PINNED_REPORTS[mode]

    def test_cross_failures_in_record_then_response_order(self, embedder):
        class BookModel:
            def generate_text(self, prompt, max_new_tokens=48):
                return "open" if "### CONTEXT" in prompt else "closed"

        class RefusingGenerator:
            def complete(self, messages):
                passage = messages[-1]["content"].split("Context: ")[1]
                raise RuntimeError(passage.split()[0])

        cfg = self.eval_cfg(embedder, generator=RefusingGenerator())
        report = evaluate(designed_records(), BookModel(), "cross", cfg)
        # the empty-context record is answered closed-book twice
        books = [("open", "closed")] * 5 + [("closed", "closed")]
        assert report.failures == [f"record {i}: {book}"
                                   for i, pair in enumerate(books)
                                   for book in pair]

    def test_designed_scenario_counts(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "open",
                          self.eval_cfg(embedder))
        assert report.scenario_counts == {"golden_context": 2,
                                          "mixed_context": 2,
                                          "irrelevant_context": 1,
                                          "empty_context": 1}
        assert sum(report.scenario_counts.values()) == report.record_count

    def test_open_metrics_present(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "open",
                          self.eval_cfg(embedder))
        assert report.faith is not None
        assert report.filter is not None
        assert report.rr is not None
        assert report.ra_open is not None
        assert report.qr is None and report.fl is None

    def test_always_refusing_model_rr_one(self, embedder):
        records = [make_record(q=f"q{i}", context_id="pumps:0000",
                               retrieved=["valves:0000"])
                   for i in range(4)]
        report = evaluate(records, CannedModel("I don't know"), "open",
                          self.eval_cfg(embedder))
        assert report.rr == 1.0

    def test_all_empty_retrieval_reports_ra_only(self, embedder):
        records = [make_record(q=f"q{i}", context_id="pumps:0000",
                               retrieved=[])
                   for i in range(3)]
        report = evaluate(records, CannedModel(), "open",
                          self.eval_cfg(embedder))
        assert report.ra_open is not None
        assert report.faith is None
        assert report.filter is None
        assert report.rr is None

    def test_closed_mode_ra_only(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "closed",
                          self.eval_cfg(embedder, index=None))
        assert report.ra_closed is not None
        assert report.faith is None and report.rr is None
        assert report.scenario_counts == {}

    def test_cross_mode_qr_fl(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "cross",
                          self.eval_cfg(embedder))
        assert report.qr is not None
        assert report.fl is not None
        assert not report.partial

    def test_empty_dataset_rejected(self, embedder):
        with pytest.raises(ValueError):
            evaluate([], CannedModel(), "open", self.eval_cfg(embedder))

    def test_unknown_mode_rejected(self, embedder):
        with pytest.raises(ValueError):
            evaluate(designed_records(), CannedModel(), "sideways",
                     self.eval_cfg(embedder))

    def test_open_requires_index(self, embedder):
        with pytest.raises(ConfigError):
            evaluate(designed_records(), CannedModel(), "open",
                     self.eval_cfg(embedder, index=None))

    def test_judge_outage_marks_partial(self, embedder):
        cfg = self.eval_cfg(embedder, judges=[FailingJudge()])
        report = evaluate(designed_records(), CannedModel(), "cross", cfg)
        assert report.partial
        assert report.failures

    def test_responses_written_back(self, embedder):
        records = designed_records()
        evaluate(records, CannedModel("canned answer"), "cross",
                 self.eval_cfg(embedder))
        for r in records:
            assert r.open_response == "canned answer"
            assert r.closed_response == "canned answer"


class TestEvalReport:
    def test_json_round_trip(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "open",
                          TestEvaluate().eval_cfg(embedder))
        data = json.loads(report.to_json())
        assert data["mode"] == "open"
        assert data["record_count"] == 6
        assert data["scenario_counts"]["golden_context"] == 2
        assert json.loads(report.to_json()) == data
        again = EvalReport.from_json(report.to_json())
        assert again == report
        assert again.to_json() == report.to_json()

    def test_from_json_rejects_missing_and_unknown_keys(self):
        full = json.loads(EvalReport(mode="open", record_count=1,
                                     scenario_counts={}).to_json())
        with pytest.raises(FormatError, match="missing"):
            EvalReport.from_json('{"mode": "open", "record_count": 1}')
        with pytest.raises(FormatError, match="unknown"):
            EvalReport.from_json(json.dumps({**full, "extra": 1}))
        with pytest.raises(FormatError):
            EvalReport.from_json("[]")
        for key, value in (("record_count", True), ("partial", 1),
                           ("rr", "0.5"), ("scenario_counts", {"a": 1.5}),
                           ("failures", [None])):
            with pytest.raises(FormatError, match=repr(key)):
                EvalReport.from_json(json.dumps({**full, key: value}))
        assert EvalReport.from_json(json.dumps({**full, "rr": 1})).rr == 1

    def test_table_shows_dashes_for_absent(self, embedder):
        report = evaluate(designed_records(), CannedModel(), "closed",
                          TestEvaluate().eval_cfg(embedder, index=None))
        table = report.to_table()
        assert "RA-closed" in table
        lines = [l for l in table.splitlines() if l.strip()]
        assert any("-" in l for l in lines[1:])
