import io
import json
import urllib.error
import urllib.request

import pytest

from loramix.curation import (HttpChatClient, QaRecord, StubGenerator, curate,
                              first_sentence, generate_ground_truth,
                              generate_question, load_records, save_records)
from loramix.errors import ClientError, FormatError
from loramix.retrieval import HTTP_RETRIES, RetrievalConfig, TrigramEmbedder


@pytest.fixture(scope="module")
def emb():
    return TrigramEmbedder(dim=256)


CFG = RetrievalConfig(theta=0.2, target_size=200, overlap=0)

TEN_DOCS = [
    ("optics.prisms", "The prism bends light.", "optics"),
    ("optics.lenses", "The lens focuses beams.", "optics"),
    ("optics.mirrors", "The mirror reflects images.", "optics"),
    ("optics.gratings", "The grating separates colors.", "optics"),
    ("optics.filters", "The filter blocks glare.", "optics"),
    ("hydraulics.pumps", "The pump moves water.", "hydraulics"),
    ("hydraulics.valves", "The valve stops flow.", "hydraulics"),
    ("hydraulics.pipes", "The pipe carries liquid.", "hydraulics"),
    ("hydraulics.tanks", "The tank stores rainwater.", "hydraulics"),
    ("hydraulics.gauges", "The gauge reads pressure.", "hydraulics"),
]


class FixedGenerator:
    """Returns one canned payload regardless of the prompt."""

    def __init__(self, payload: str):
        self.payload = payload

    def complete(self, messages):
        return self.payload


class FlakyUrlopen:
    """Stands in for urllib.request.urlopen: fails `failures` times, then
    answers with `body`."""

    def __init__(self, failures: int, body: bytes):
        self.failures = failures
        self.body = body
        self.attempts = 0

    def __call__(self, req, timeout):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise urllib.error.URLError("connection refused")
        return io.BytesIO(self.body)


class TestHttpChatClient:
    MESSAGES = [{"role": "user", "content": "hi"}]

    def test_gives_up_after_retries_plus_one_attempts(self, monkeypatch):
        urlopen = FlakyUrlopen(failures=10, body=b"")
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        client = HttpChatClient("http://localhost:9/chat")
        with pytest.raises(ClientError,
                           match=f"after {HTTP_RETRIES + 1} attempts"):
            client.complete(self.MESSAGES)
        assert urlopen.attempts == HTTP_RETRIES + 1

    def test_success_on_a_later_attempt_returns_the_body(self, monkeypatch):
        body = json.dumps({"choices": [{"message": {"content": "answer"}}]})
        urlopen = FlakyUrlopen(failures=HTTP_RETRIES,
                               body=body.encode("utf-8"))
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        client = HttpChatClient("http://localhost:9/chat")
        assert client.complete(self.MESSAGES) == "answer"
        assert urlopen.attempts == HTTP_RETRIES + 1


class TestStubGenerator:
    def test_question_rule_pin(self):
        q = generate_question("The router uses softmax gating.",
                              StubGenerator())
        assert q == "What does the router use?"

    def test_ground_truth_is_first_sentence(self):
        chunk = "The pump moves water. It never sleeps."
        gt = generate_ground_truth(chunk, "What does the pump move?",
                                   StubGenerator())
        assert gt == "The pump moves water."

    def test_short_sentence_falls_back_to_quote(self):
        q = generate_question("Onwards.", StubGenerator())
        assert q == 'What is meant by "Onwards"?'

    def test_first_sentence_helper(self):
        assert first_sentence("One. Two. Three.") == "One."


class TestGeneratorContracts:
    def test_non_json_payload_rejected(self):
        with pytest.raises(FormatError):
            generate_question("Some chunk.", FixedGenerator("not json at all"))

    def test_empty_question_rejected(self):
        gen = FixedGenerator(json.dumps({"question": ""}))
        with pytest.raises(ValueError):
            generate_question("Some chunk.", gen)

    def test_missing_ground_truth_key_rejected(self):
        gen = FixedGenerator(json.dumps({"answer": "wrong key"}))
        with pytest.raises(FormatError):
            generate_ground_truth("Some chunk.", "A question?", gen)

    def test_json_embedded_in_prose_is_recovered(self):
        gen = FixedGenerator('Sure! {"question": "What gives?"} Done.')
        assert generate_question("Some chunk.", gen) == "What gives?"

    def test_whitespace_trimmed(self):
        gen = FixedGenerator(json.dumps({"ground truth": "  padded  "}))
        assert generate_ground_truth("c", "q", gen) == "padded"


class TestCurate:
    def test_eight_two_split_at_seed_three(self, emb):
        result = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        assert len(result.train) == 8
        assert len(result.test) == 2
        rerun = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        assert [r.context_id for r in rerun.train] == \
            [r.context_id for r in result.train]
        assert [r.context_id for r in rerun.test] == \
            [r.context_id for r in result.test]

    def test_splits_disjoint_and_exhaustive(self, emb):
        result = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        train_ids = {r.context_id for r in result.train}
        test_ids = {r.context_id for r in result.test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(result.index.chunks)

    def test_one_chunk_corpus_retrieves_itself(self, emb):
        docs = [("solo", "The siphon lifts water uphill.", "default")]
        result = curate(docs, StubGenerator(), CFG, emb, seed=0)
        (record,) = result.records
        assert record.context_id in record.retrieved

    def test_record_count_equals_chunk_count(self, emb):
        docs = TEN_DOCS[:5]
        result = curate(docs, StubGenerator(), CFG, emb, seed=1)
        assert len(result.records) == len(result.index.chunks)

    def test_whitespace_only_chunks_yield_no_records(self, emb):
        # This layout splits into three chunks, the middle one a bare
        # newline kept for exact reconstruction. It must be indexed but
        # produce no QA record (there is nothing to ask about it).
        body = "a" * 120 + "\n" + "b" * 78 + "\n\n" + "Second paragraph here.\n"
        result = curate([("doc", body, "default")], StubGenerator(), CFG,
                        emb, seed=0)
        assert len(result.index.chunks) == 3
        assert "doc:0001" in result.index.chunks
        assert not result.index.text_of("doc:0001").strip()
        assert {r.context_id for r in result.records} == \
            {"doc:0000", "doc:0002"}

    def test_context_ids_resolve(self, emb):
        result = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        for r in result.records:
            assert result.index.text_of(r.context_id)

    def test_domain_tags_carried_through(self, emb):
        result = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        tags = {r.domain_tag for r in result.records}
        assert tags == {"optics", "hydraulics"}


class TestPersistence:
    def test_record_round_trip(self):
        r = QaRecord(q="What does the pump move?",
                     context_id="hydraulics.pumps:0000",
                     retrieved=["hydraulics.pumps:0000", "x:0001"],
                     ground_truth="The pump moves water.",
                     domain_tag="hydraulics",
                     open_response="water",
                     closed_response=None)
        assert QaRecord.from_json(r.to_json()) == r

    def test_jsonl_bytes_stable(self, tmp_path, emb):
        result = curate(TEN_DOCS, StubGenerator(), CFG, emb, seed=3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_records(a, result.train)
        save_records(b, result.train)
        assert a.read_bytes() == b.read_bytes()
        assert load_records(a) == result.train

    def test_jsonl_key_schema(self):
        r = QaRecord(q="q?", context_id="c:0000", retrieved=[],
                     ground_truth="g", domain_tag="d")
        keys = set(json.loads(r.to_json()))
        assert keys == {"q", "context_id", "retrieved", "open_response",
                        "closed_response", "ground_truth", "domain_tag"}

    def test_rows_load_strictly(self):
        row = json.loads(QaRecord(q="q?", context_id="c:0000", retrieved=[],
                                  ground_truth="g", domain_tag="d").to_json())
        with pytest.raises(FormatError, match="unknown"):
            QaRecord.from_json(json.dumps({**row, "extra": 1}))
        for key in ("open_response", "closed_response", "q"):
            partial = {k: v for k, v in row.items() if k != key}
            with pytest.raises(FormatError, match="missing"):
                QaRecord.from_json(json.dumps(partial))
        for bad in ("{not json", "[]"):
            with pytest.raises(FormatError):
                QaRecord.from_json(bad)
        for key, value in (("retrieved", "c:0000"), ("retrieved", [0]),
                           ("closed_response", 7), ("q", True),
                           ("domain_tag", None)):
            with pytest.raises(FormatError, match=repr(key)):
                QaRecord.from_json(json.dumps({**row, key: value}))
