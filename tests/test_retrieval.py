import json
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loramix.errors import ClientError, ConfigError, FormatError
from loramix.numerics import cosine_similarity
from loramix.retrieval import (HTTP_RETRIES, CorpusIndex, HttpEmbedderClient,
                               RetrievalConfig, TrigramEmbedder, VectorIndex,
                               build_corpus_index, retrieve, split_recursive)
from test_curation import FlakyUrlopen


WORDS = ["router", "expert", "gate", "prism", "siphon", "lens", "aqueduct",
         "mixture", "adapter", "frozen", "water", "light"]

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)


def reconstruct(chunks) -> str:
    """Inverse of split_recursive for chunks of a single document."""
    return "".join(c.text[c.lead:] for c in chunks)


class TestSplit:
    def test_short_text_single_chunk(self):
        cfg = RetrievalConfig(target_size=400, overlap=0)
        chunks = split_recursive("tiny text", "doc", cfg)
        assert len(chunks) == 1
        assert chunks[0].text == "tiny text"
        assert chunks[0].chunk_id == "doc:0000"

    def test_pinned_three_way_split(self):
        # 1000 chars with paragraph breaks after 390 and 780: each
        # paragraph fits the 400-char budget, so the splitter must cut
        # exactly at the breaks
        text = "a" * 390 + "\n\n" + "b" * 388 + "\n\n" + "c" * 218
        assert len(text) == 1000
        cfg = RetrievalConfig(target_size=400, overlap=0)
        chunks = split_recursive(text, "doc", cfg)
        assert len(chunks) == 3
        assert chunks[0].text == "a" * 390 + "\n\n"
        assert chunks[1].text == "b" * 388 + "\n\n"
        assert chunks[2].text == "c" * 218

    def test_overlap_shares_prefix(self):
        text = ("alpha " * 100).strip()
        cfg = RetrievalConfig(target_size=200, overlap=50)
        chunks = split_recursive(text, "doc", cfg)
        assert len(chunks) > 1
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.lead == 50
            assert cur.text[:50] == prev.text[-50:]
            assert len(cur.text) <= 200

    def test_empty_text_no_chunks(self):
        assert split_recursive("", "doc", RetrievalConfig()) == []

    def test_character_fallback_for_unbroken_text(self):
        cfg = RetrievalConfig(target_size=10, overlap=0)
        chunks = split_recursive("x" * 35, "doc", cfg)
        assert [c.text for c in chunks] == ["x" * 10] * 3 + ["x" * 5]

    @given(text=st.text(alphabet="ab \n.", min_size=1, max_size=300),
           target=st.integers(8, 64), overlap=st.integers(0, 7))
    def test_reconstruction_round_trip(self, text, target, overlap):
        cfg = RetrievalConfig(target_size=target, overlap=overlap)
        chunks = split_recursive(text, "doc", cfg)
        assert reconstruct(chunks) == text
        for c in chunks:
            assert len(c.text) <= target

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetrievalConfig(theta=1.5)
        with pytest.raises(ConfigError):
            RetrievalConfig(target_size=100, overlap=100)

    def test_default_theta_is_pinned(self):
        assert RetrievalConfig().theta == 0.87


class TestTrigramEmbedder:
    def test_deterministic(self, embedder):
        a = embedder.embed("the router mixes experts")
        b = embedder.embed("the router mixes experts")
        assert np.array_equal(a, b)

    def test_unit_norm(self, embedder):
        for text in ["prism", "light bends in glass", "aqueduct water flow"]:
            assert abs(np.linalg.norm(embedder.embed(text)) - 1.0) <= 1e-9

    def test_disjoint_characters_orthogonal(self, embedder):
        # no shared trigrams and no bucket collisions for this pair
        a = embedder.embed("aaa bbb")
        b = embedder.embed("ccc ddd")
        assert cosine_similarity(a, b) == 0.0

    def test_self_similarity_is_one(self, embedder):
        v = embedder.embed("siphon")
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    @given(text=texts)
    def test_norm_property(self, embedder, text):
        assert abs(np.linalg.norm(embedder.embed(text)) - 1.0) <= 1e-9


class TestHttpEmbedderClient:
    URL = "http://localhost:9/embed"

    def test_gives_up_after_retries_plus_one_attempts(self, monkeypatch):
        urlopen = FlakyUrlopen(failures=10, body=b"")
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(ClientError,
                           match=f"after {HTTP_RETRIES + 1} attempts"):
            HttpEmbedderClient(self.URL, dim=3).embed("text")
        assert urlopen.attempts == HTTP_RETRIES + 1

    def test_wrong_dimension_is_a_format_error(self, monkeypatch):
        body = json.dumps({"embedding": [0.6, 0.8]}).encode("utf-8")
        monkeypatch.setattr(urllib.request, "urlopen",
                            FlakyUrlopen(failures=0, body=body))
        with pytest.raises(FormatError, match="expected \\(3,\\)") as exc:
            HttpEmbedderClient(self.URL, dim=3).embed("text")
        assert exc.value.payload == body.decode("utf-8")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_vector_is_a_format_error(self, monkeypatch, bad):
        body = f'{{"embedding": [{bad}, 0.6, 0.8]}}'.encode("utf-8")
        monkeypatch.setattr(urllib.request, "urlopen",
                            FlakyUrlopen(failures=0, body=body))
        with pytest.raises(FormatError, match="all finite") as exc:
            HttpEmbedderClient(self.URL, dim=3).embed("text")
        assert exc.value.payload == body.decode("utf-8")

    def test_returns_the_vector_of_a_good_reply(self, monkeypatch):
        body = json.dumps({"embedding": [0.0, 0.6, 0.8]}).encode("utf-8")
        urlopen = FlakyUrlopen(failures=HTTP_RETRIES, body=body)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        vec = HttpEmbedderClient(self.URL, dim=3).embed("text")
        assert vec.tolist() == [0.0, 0.6, 0.8]
        assert urlopen.attempts == HTTP_RETRIES + 1


def brute_force(query, index, theta, embedder):
    q = embedder.embed(query)
    q = q / np.linalg.norm(q)
    hits = []
    for cid, row in zip(index.ids, index.matrix()):
        s = float(row @ q)
        if s > theta:
            hits.append((cid, s))
    hits.sort(key=lambda t: (-t[1], t[0]))
    return hits


class TestRetrieve:
    def build_index(self, embedder, texts_list):
        idx = VectorIndex(dim=256)
        for i, t in enumerate(texts_list):
            idx.add(f"c{i:03d}", embedder.embed(t))
        return idx

    def test_self_match_below_one(self, embedder):
        idx = self.build_index(embedder, ["the siphon lifts water"])
        for theta in [0.0, 0.5, 0.9, 0.999]:
            hits = retrieve("the siphon lifts water", idx,
                            RetrievalConfig(theta=theta), embedder)
            assert [h.chunk_id for h in hits] == ["c000"]
            assert hits[0].score == pytest.approx(1.0, abs=1e-9)

    def test_extreme_threshold_empty(self, embedder):
        idx = self.build_index(embedder, ["prisms split light",
                                          "aqueducts carry water"])
        hits = retrieve("glass bends beams", idx,
                        RetrievalConfig(theta=0.999999), embedder)
        assert hits == []

    def test_twenty_chunk_brute_force(self, embedder):
        rng = np.random.default_rng(0)
        texts_list = [" ".join(rng.choice(WORDS, size=4)) for _ in range(20)]
        idx = self.build_index(embedder, texts_list)
        cfg = RetrievalConfig(theta=0.3)
        got = retrieve("router expert gate", idx, cfg, embedder)
        want = brute_force("router expert gate", idx, 0.3, embedder)
        assert [(h.chunk_id, pytest.approx(h.score)) for h in got] == \
            [(cid, pytest.approx(s)) for cid, s in want]

    @given(seed=st.integers(0, 10_000),
           theta=st.floats(-0.5, 0.98),
           n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, embedder, seed, theta, n):
        rng = np.random.default_rng(seed)
        idx = self.build_index(
            embedder, [" ".join(rng.choice(WORDS, size=3)) for _ in range(n)])
        query = " ".join(rng.choice(WORDS, size=3))
        cfg = RetrievalConfig(theta=theta)
        got = retrieve(query, idx, cfg, embedder)
        want = brute_force(query, idx, theta, embedder)
        # scores can differ in the last ulp (blas vs per-row summation),
        # so ids must match exactly and scores to float precision
        assert [h.chunk_id for h in got] == [cid for cid, _ in want]
        for h, (_, s) in zip(got, want):
            assert h.score == pytest.approx(s, abs=1e-12)

    @given(seed=st.integers(0, 10_000),
           t1=st.floats(-0.5, 0.9), t2=st.floats(-0.5, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_theta_monotonicity(self, embedder, seed, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        rng = np.random.default_rng(seed)
        idx = self.build_index(
            embedder, [" ".join(rng.choice(WORDS, size=3)) for _ in range(8)])
        query = " ".join(rng.choice(WORDS, size=3))
        wide = {h.chunk_id for h in
                retrieve(query, idx, RetrievalConfig(theta=lo), embedder)}
        narrow = {h.chunk_id for h in
                  retrieve(query, idx, RetrievalConfig(theta=hi), embedder)}
        assert narrow <= wide

    def test_insertion_order_invariance(self, embedder):
        texts_list = ["prisms split light", "lenses focus light",
                      "aqueducts carry water", "siphons lift water"]
        fwd = self.build_index(embedder, texts_list)
        rev = VectorIndex(dim=256)
        for i, t in reversed(list(enumerate(texts_list))):
            rev.add(f"c{i:03d}", embedder.embed(t))
        cfg = RetrievalConfig(theta=0.1)
        a = [(h.chunk_id, h.score) for h in
             retrieve("light in water", fwd, cfg, embedder)]
        b = [(h.chunk_id, h.score) for h in
             retrieve("light in water", rev, cfg, embedder)]
        assert a == b

    def test_empty_query_rejected(self, embedder):
        idx = self.build_index(embedder, ["something"])
        with pytest.raises(ValueError):
            retrieve("", idx, RetrievalConfig(), embedder)

    def test_chunk_added_after_retrieve_is_found(self, embedder):
        idx = self.build_index(embedder, ["light prism lens",
                                          "water siphon aqueduct"])
        cfg = RetrievalConfig(theta=0.5)
        assert retrieve("router gate expert", idx, cfg, embedder) == []
        idx.add("c002", embedder.embed("router gate expert"))
        hits = retrieve("router gate expert", idx, cfg, embedder)
        assert [h.chunk_id for h in hits] == ["c002"]

    def test_non_unit_embedding_rejected(self):
        idx = VectorIndex(dim=4)
        with pytest.raises(ValueError):
            idx.add("c0", np.array([1.0, 1.0, 0.0, 0.0]))


class TestCorpusIndex:
    def test_build_and_save_round_trip(self, tmp_path, embedder):
        cfg = RetrievalConfig(theta=0.3, target_size=60, overlap=0)
        docs = [("optics.prisms", "Prisms split light. Glass bends beams."),
                ("hydraulics.pipes", "Pipes carry water downhill fast.")]
        idx = build_corpus_index(docs, cfg, embedder)
        assert len(idx.chunks) >= 2
        path = tmp_path / "index.jsonl"
        idx.save(path)
        loaded = CorpusIndex.load(path)
        assert sorted(loaded.chunks) == sorted(idx.chunks)
        q = "what splits light?"
        a = [(h.chunk_id, h.score) for h in idx.retrieve(q, cfg, embedder)]
        b = [(h.chunk_id, h.score) for h in loaded.retrieve(q, cfg, embedder)]
        assert a == b

    def test_save_bytes_stable(self, tmp_path, embedder):
        cfg = RetrievalConfig(target_size=60, overlap=0)
        docs = [("d", "Short document body here.")]
        idx = build_corpus_index(docs, cfg, embedder)
        idx.save(tmp_path / "a.jsonl")
        idx.save(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()

    def test_text_of_resolves_every_chunk(self, embedder):
        cfg = RetrievalConfig(target_size=40, overlap=0)
        body = "One sentence. Another sentence. A third one to split."
        idx = build_corpus_index([("doc", body)], cfg, embedder)
        for cid in idx.chunks:
            assert idx.text_of(cid)

    def test_loaded_overlapping_chunks_reconstruct(self, tmp_path, embedder):
        cfg = RetrievalConfig(target_size=60, overlap=10)
        body = " ".join(WORDS * 4)[:240]
        idx = build_corpus_index([("doc", body)], cfg, embedder)
        assert len(idx.chunks) > 2
        assert any(c.lead for c in idx.chunks.values())
        idx.save(tmp_path / "index.jsonl")
        loaded = CorpusIndex.load(tmp_path / "index.jsonl")
        assert reconstruct(loaded.chunks[cid]
                           for cid in sorted(loaded.chunks)) == body

    def test_row_without_lead_rejected(self, tmp_path, embedder):
        cfg = RetrievalConfig(target_size=60, overlap=0)
        idx = build_corpus_index([("d", "Short document body here.")], cfg,
                                 embedder)
        path = tmp_path / "index.jsonl"
        idx.save(path)
        rows = [json.loads(ln) for ln in path.read_text().splitlines()]
        for row in rows:
            del row["lead"]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FormatError):
            CorpusIndex.load(path)
