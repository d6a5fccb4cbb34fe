"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, then `run_round`
performs one round: a fixed list of operations, the same for every seed
and every round. Only the program's work is timed (`Round.timed`); the
independent checks run outside the timed phases and mark operations
failed. An operation is one optimizer step, one `generate` call, one
`retrieve` call, one curated record, one evaluated record or one `index`
command.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import corpus
import oracles


class Round:
    """Timings, amounts of work and operation counts of one round."""

    def __init__(self, tracer=None):
        self.phase_s: dict[str, float] = defaultdict(float)
        self.amount: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.expected_failed = 0
        self.problems: list[str] = []
        self.step_ms: list[float] = []
        self.raised = False
        self._tracer = tracer

    @contextlib.contextmanager
    def timed(self, phase: str):
        if self._tracer is not None:
            self._tracer.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[phase] += time.perf_counter() - t0
            if self._tracer is not None:
                self._tracer.active = False

    @property
    def total_s(self) -> float:
        return sum(self.phase_s.values())

    def ops(self, what: str, results: list[bool], expected_fail: bool = False
            ) -> None:
        """Count operations; each False in results is one failed operation."""
        bad = results.count(False)
        self.attempted += len(results)
        self.failed += bad
        if expected_fail:
            self.expected_failed += bad
        elif bad:
            self.problems.append(f"{bad} of {len(results)} {what} failed")


class GenerateLog:
    """Records every `generate` call of one model with its duration.

    The recording wrapper is an attribute of the model instance and calls
    the class's method on each call, so tracing the class still sees it.
    """

    def __init__(self, model):
        self.calls: list[tuple[list[int], int, int, list[int]]] = []
        self.seconds = 0.0
        self.step_ms: list[float] = []   # per call: its time per greedy step
        cls = type(model)
        signature = inspect.signature(cls.generate)

        def generate(*args, **kwargs):
            bound = signature.bind(model, *args, **kwargs)
            bound.apply_defaults()
            t0 = time.perf_counter()
            out = cls.generate(model, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            call = (list(bound.arguments["prompt_tokens"]),
                    bound.arguments["max_new_tokens"],
                    bound.arguments["stop_token"], list(out))
            self.seconds += elapsed
            self.step_ms.append(1e3 * elapsed / max(1, self.steps([call])))
            self.calls.append(call)
            return out

        model.generate = generate

    def take(self) -> list[tuple[list[int], int, int, list[int]]]:
        calls, self.calls = self.calls, []
        return calls

    @staticmethod
    def steps(calls) -> int:
        """Greedy steps run: one per emitted token, plus the step that
        chose the stop token when decoding ended before the budget."""
        return sum(len(out) + (len(out) < budget)
                   for _, budget, _, out in calls)

    def check(self, model, calls) -> list[bool]:
        return [stop == oracles.NEWLINE
                and oracles.greedy_consistent(model, prompt, budget, out)
                for prompt, budget, stop, out in calls]


def _text(tokens: list[int]) -> str:
    return bytes(tokens).decode("utf-8", errors="replace")


def _train_checked(rnd: Round, model, examples, cfg, seed: int) -> None:
    """One `train` call, timed, with its steps checked.

    The gradient is audited on the first batch before the first step and
    after the last; the base arrays must hash the same before and after,
    and the mean loss of the last three steps must be below the first.
    """
    from loramix import training

    window = model.cfg.max_seq_len
    batch = [training.encode_example(ex, window)
             for ex in examples[:cfg.batch_size]]
    tokens = sum(len(training.encode_example(ex, window)[0])
                 for ex in examples) * cfg.epochs
    steps = cfg.epochs * -(-len(examples) // cfg.batch_size)
    grad_first = oracles.gradient_matches(model, batch, seed, training.loss_and_grads,
                                          training.batch_loss)
    before = oracles.base_hash(model)
    with rnd.timed("train"):
        result = training.train(model, examples, cfg)
    rnd.amount["train_tokens"] += tokens
    grad_last = oracles.gradient_matches(model, batch, seed + 1,
                                         training.loss_and_grads,
                                         training.batch_loss)
    trace = list(result.loss_trace)
    ok = [True] * steps
    if result.steps != steps or len(trace) != steps:
        ok = [False] * steps
    else:
        ok[0] = grad_first
        ok[-1] = (grad_last and oracles.base_hash(model) == before
                  and sum(trace[-3:]) / 3 < trace[0])
    rnd.ops("optimizer steps", ok)


def model_stages(rnd: Round) -> dict[str, float]:
    """Milliseconds per unit of a round that trains and decodes.

    Build: per sequence position through `train`. Answer: per greedy
    step, averaged over `generate` calls. Open-book prompts make steps
    several times dearer than closed-book ones, and the number of steps
    in each call depends on when the model emits a newline, so a mean
    over all steps would follow the seed; every call weighs the same.
    """
    return {"build": 1e3 * rnd.phase_s["train"] / rnd.amount["train_tokens"],
            "answer": statistics.fmean(rnd.step_ms)}


# -- forget-short ----------------------------------------------------------------


@dataclasses.dataclass
class ForgetState:
    seed: int
    model_cfg: object
    base: dict
    task_a: list
    task_b: list


class ForgetShort:
    """The forgetting experiment's shapes, at a fixed number of epochs.

    Both arms (4-expert top-2 rank-2 mixture, matched rank-9 single
    adapter) train task A then task B full-batch, then recall all 32
    items greedily. Objects and answers are re-paired by the seed; the
    multiset of sequence lengths, and so the work, is the same for every
    seed.
    """

    name = "forget-short"
    EPOCHS_A = 20
    EPOCHS_B = 10
    LR = 1e-3
    RECALL_TOKENS = 16
    EMBED_DIM = 256

    def prepare(self, seed: int) -> tuple:
        import numpy as np
        from loramix import experiments, training

        rng = np.random.default_rng(seed)

        def task(items, render):
            objs = [o for o, _ in items]
            answers = [items[i][1] for i in rng.permutation(len(items))]
            return [training.TrainExample(prompt=render(o), answer=a)
                    for o, a in zip(objs, answers)]

        task_a = task(experiments.TASK_A_ITEMS,
                      lambda o: f"Q: What color is the {o}?\nA: ")
        task_b = task(experiments.TASK_B_ITEMS, lambda o: f"CODE[{o}] => ")
        return seed, task_a, task_b

    def setup(self, prepared: tuple, work: Path) -> ForgetState:
        from loramix import experiments, model, training

        seed, task_a, task_b = prepared
        cfg = model.ToyModelConfig(seed=seed, **experiments.FORGETTING_MODEL)
        base = model.ToyCausalLm(cfg, adapters=None).base_arrays()
        for spec in (experiments.FORGETTING_MIXTURE,
                     experiments.FORGETTING_SINGLE):
            warm = model.ToyCausalLm(cfg, adapters=spec, base_weights=base)
            batch = [training.encode_example(ex, cfg.max_seq_len)
                     for ex in task_a]
            training.loss_and_grads(warm, batch)
            warm.generate_text(task_a[0].prompt, max_new_tokens=2)
        return ForgetState(seed, cfg, base, task_a, task_b)

    stages = staticmethod(model_stages)

    def ops_per_round(self, st: ForgetState) -> int:
        per_arm = (self.EPOCHS_A + self.EPOCHS_B
                   + 2 * (len(st.task_a) + len(st.task_b)))
        return 2 * per_arm

    def run_round(self, st: ForgetState, rnd: Round) -> None:
        from loramix import experiments, model, retrieval, training

        embedder = retrieval.TrigramEmbedder(dim=self.EMBED_DIM)
        arms = (experiments.FORGETTING_MIXTURE, experiments.FORGETTING_SINGLE)
        for arm, spec in enumerate(arms):
            with rnd.timed("build"):
                lm = model.ToyCausalLm(st.model_cfg, adapters=spec,
                                       base_weights=st.base)
            log = GenerateLog(lm)
            for phase, (examples, epochs) in enumerate(
                    ((st.task_a, self.EPOCHS_A), (st.task_b, self.EPOCHS_B))):
                cfg = training.TrainConfig(lr=self.LR,
                                           batch_size=len(examples),
                                           epochs=epochs, seed=st.seed)
                _train_checked(rnd, lm, examples, cfg,
                               seed=st.seed * 16 + arm * 4 + phase * 2)
            for examples in (st.task_a, st.task_b):
                with rnd.timed("eval"):
                    ra = experiments.task_recall(lm, examples, embedder)
                rnd.amount["eval_records"] += len(examples)
                calls = log.take()
                rnd.amount["decode_tokens"] += sum(len(c[3]) for c in calls)
                rnd.ops("generate calls", log.check(lm, calls)
                        if len(calls) == len(examples)
                        else [False] * len(examples))
                recomputed = [oracles.recall_accuracy(_text(c[3]), ex.answer,
                                                      self.EMBED_DIM)
                              for c, ex in zip(calls, examples)]
                good = (len(recomputed) == len(examples)
                        and all(c[1] == self.RECALL_TOKENS for c in calls)
                        and abs(sum(recomputed) / len(recomputed) - ra)
                        <= oracles.RA_TOL)
                rnd.ops("recall records", [good] * len(examples))
            rnd.amount["decode_s"] += log.seconds
            rnd.step_ms += log.step_ms


# -- copy-long -------------------------------------------------------------------


@dataclasses.dataclass
class CopyState:
    seed: int
    fixture: object
    model_cfg: object
    base: dict
    exact: oracles.ExactRetrieval


class CopyLong:
    """The open-book copy fixture: 316-byte prompts in a 384 window.

    A fixed number of steps at batch 8, then `evaluate` in open and
    closed mode on the held-out rooms. With 8 training rooms there are 24
    held-out records.
    """

    name = "copy-long"
    N_TRAIN_ROOMS = 8
    N_TRAIN_EXAMPLES = 128
    BATCH = 8
    LR = 2e-3
    MAX_NEW_TOKENS = 12
    EMBED_DIM = 256

    def prepare(self, seed: int) -> int:
        return seed

    def setup(self, seed: int, work: Path) -> CopyState:
        from loramix import experiments, model, training

        fixture = experiments.build_copy_fixture(
            seed=seed, n_train_rooms=self.N_TRAIN_ROOMS,
            n_train_examples=self.N_TRAIN_EXAMPLES)
        cfg = model.ToyModelConfig(vocab_size=256, d_model=64, n_layers=1,
                                   n_heads=2, d_ff=128, max_seq_len=384,
                                   seed=seed)
        base = model.ToyCausalLm(cfg, adapters=None).base_arrays()
        warm = model.ToyCausalLm(cfg, adapters=self._spec(), base_weights=base)
        batch = [training.encode_example(ex, cfg.max_seq_len)
                 for ex in fixture.train_examples[:self.BATCH]]
        training.loss_and_grads(warm, batch)
        warm.generate_text(fixture.train_examples[0].prompt, max_new_tokens=2)
        chunks = fixture.index.chunks
        exact = oracles.ExactRetrieval(list(chunks),
                                       [c.text for c in chunks.values()],
                                       self.EMBED_DIM)
        return CopyState(seed, fixture, cfg, base, exact)

    @staticmethod
    def _spec():
        from loramix import model
        return model.AdapterSpec(n_experts=4, top_k=2, rank=8, alpha=16.0)

    stages = staticmethod(model_stages)

    def ops_per_round(self, st: CopyState) -> int:
        steps = -(-len(st.fixture.train_examples) // self.BATCH)
        n = len(st.fixture.test_records)
        return steps + n + 2 * n + 2 * n   # retrieves, generates, records

    def run_round(self, st: CopyState, rnd: Round) -> None:
        from loramix import evaluation, model, retrieval, training

        fx = st.fixture
        with rnd.timed("build"):
            lm = model.ToyCausalLm(st.model_cfg, adapters=self._spec(),
                                   base_weights=st.base)
        log = GenerateLog(lm)
        cfg = training.TrainConfig(lr=self.LR, batch_size=self.BATCH,
                                   epochs=1, seed=st.seed)
        _train_checked(rnd, lm, fx.train_examples, cfg, seed=st.seed * 16)

        embedder = retrieval.TrigramEmbedder(dim=self.EMBED_DIM)
        eval_cfg = evaluation.EvalConfig(
            embedder=embedder, retrieval=fx.retrieval, index=fx.index,
            max_new_tokens=self.MAX_NEW_TOKENS)
        theta = fx.retrieval.theta
        for mode in ("open", "closed"):
            records = [dataclasses.replace(r, retrieved=[])
                       for r in fx.test_records]
            with rnd.timed("eval"):
                report = evaluation.evaluate(records, lm, mode, eval_cfg)
            rnd.amount["eval_records"] += len(records)
            calls = log.take()
            rnd.amount["decode_tokens"] += sum(len(c[3]) for c in calls)
            rnd.ops("generate calls", log.check(lm, calls)
                    if len(calls) == len(records)
                    else [False] * len(records))
            responses = [r.open_response if mode == "open"
                         else r.closed_response for r in records]
            same = (len(calls) == len(records)
                    and all(resp == _text(c[3]) and c[1] == self.MAX_NEW_TOKENS
                            for resp, c in zip(responses, calls)))
            ra = [oracles.recall_accuracy(resp or "", r.ground_truth,
                                          self.EMBED_DIM)
                  for resp, r in zip(responses, records)]
            reported = report.ra_open if mode == "open" else report.ra_closed
            good = (same and reported is not None
                    and abs(sum(ra) / len(ra) - reported) <= oracles.RA_TOL)
            if mode == "open":
                hits_ok = [st.exact.check(r.q, theta, r.retrieved)
                           for r in records]
                rnd.ops("retrieve calls", hits_ok)
                scenarios = defaultdict(int)
                for r in records:
                    scenarios[oracles.classify(r.retrieved, r.context_id)] += 1
                good = good and all(report.scenario_counts.get(k, 0) == v
                                    for k, v in scenarios.items())
            rnd.ops("evaluated records", [good] * len(records))
        rnd.amount["decode_s"] += log.seconds
        rnd.step_ms += log.step_ms


# -- corpus-rag ------------------------------------------------------------------


class Reader:
    """Benchmark-side stand-in for the LM in open-book evaluation.

    It answers with the first sentence of the first context chunk in
    its prompt, and refuses when the prompt carries no context.
    """

    START = "### CONTEXT\n    "
    END = "\n    ### QUESTION"

    def generate_text(self, prompt: str, max_new_tokens: int = 48) -> str:
        i = prompt.find(self.START)
        if i < 0:
            return "I don't know."
        context = prompt[i + len(self.START):prompt.find(self.END, i)]
        return oracles.first_sentence(context.split("\n\n")[0])


# The retrieval probe: "gate siphon" and "siphon" have exactly the same
# cosine with the query (both squares are 4/15), so the id order must
# decide; the float scores differ in the last bit and put them the other
# way round. Fixed inputs, so it fails the same way in every round.
PROBE_DOCS = [("probe0", "gate siphon"), ("probe1", "siphon"),
              ("probe2", "aqueduct water")]
PROBE_QUERY = "siphon light gate"


@dataclasses.dataclass
class CorpusState:
    config_path: Path
    config: dict
    queries: list
    probe: object
    probe_cfg: object
    probe_exact: oracles.ExactRetrieval


class CorpusRag:
    """Index, curate, query and evaluate a synthetic corpus via the CLI.

    `loramix index` and `loramix curate` run in-process with stub
    clients, then fresh seeded queries go to the written index loaded
    with `CorpusIndex.load`, then open-book `evaluate` runs on the test
    split with the stub judge and the benchmark's reader. The model does
    no work here.
    """

    name = "corpus-rag"
    N_DOCS = 150
    LINES_PER_DOC = 10
    N_QUERIES = 300
    THETA = 0.45
    TRAIN_FRAC = 0.8
    EMBED_DIM = 256

    def prepare(self, seed: int) -> tuple:
        return seed, corpus.build(seed, self.N_DOCS, self.LINES_PER_DOC,
                                  self.N_QUERIES, self.THETA, self.EMBED_DIM)

    def setup(self, prepared: tuple, work: Path) -> CorpusState:
        from loramix import retrieval

        seed, texts = prepared
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        corpus.write(texts, work / "corpus")
        config = {
            "seed": seed,
            "train_frac": self.TRAIN_FRAC,
            "paths": {"corpus": str(work / "corpus"),
                      "dataset": str(work / "dataset"),
                      "index": str(work / "index.jsonl"),
                      "checkpoints": str(work / "checkpoints"),
                      "reports": str(work / "reports")},
            "retrieval": {"theta": self.THETA,
                          "target_size": corpus.one_sentence_budget(),
                          "overlap": 0},
            "clients": {"embedder": {"kind": "trigram",
                                     "dim": self.EMBED_DIM}},
        }
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        probe_cfg = retrieval.RetrievalConfig(theta=0.0, target_size=200,
                                              overlap=0)
        probe = retrieval.build_corpus_index(
            PROBE_DOCS, probe_cfg, retrieval.TrigramEmbedder(self.EMBED_DIM))
        probe_exact = oracles.ExactRetrieval(
            list(probe.chunks), [c.text for c in probe.chunks.values()],
            self.EMBED_DIM)
        return CorpusState(config_path, config, texts.queries, probe,
                           probe_cfg, probe_exact)

    @staticmethod
    def stages(rnd: Round) -> dict[str, float]:
        """Milliseconds per unit. Build: per chunk through `index` and
        `curate`. Answer: per request, a request being a query or an
        evaluated record; loading the index counts."""
        p, a = rnd.phase_s, rnd.amount
        return {"build": 1e3 * (p["index"] + p["curate"]) / a["index_chunks"],
                "answer": 1e3 * (p["load"] + p["query"] + p["eval"])
                / (a["queries"] + a["eval_records"])}

    def ops_per_round(self, st: CorpusState) -> int:
        n = self.N_DOCS * self.LINES_PER_DOC
        n_test = n - int(n * self.TRAIN_FRAC)
        return 1 + n + self.N_QUERIES + 1 + n_test

    def _cli(self, st: CorpusState, command: str) -> int:
        from loramix import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", str(st.config_path), "--stub-clients",
                             command])

    def run_round(self, st: CorpusState, rnd: Round) -> None:
        from loramix import curation, evaluation, retrieval

        paths = st.config["paths"]
        index_path = Path(paths["index"])
        for sub in ("dataset", "reports"):
            shutil.rmtree(paths[sub], ignore_errors=True)
        index_path.unlink(missing_ok=True)
        n_chunks = self.N_DOCS * self.LINES_PER_DOC

        with rnd.timed("index"):
            rc_index = self._cli(st, "index")
        rnd.amount["index_chunks"] += n_chunks
        indexed = index_path.read_bytes() if index_path.is_file() else b""
        with rnd.timed("curate"):
            rc_curate = self._cli(st, "curate")
        curated = index_path.read_bytes() if index_path.is_file() else b""
        rnd.ops("index commands",
                [rc_index == 0 and bool(indexed) and indexed == curated])

        rows = [json.loads(ln) for ln in curated.decode().splitlines() if ln]
        texts = {row["id"]: row["text"] for row in rows}
        exact = oracles.ExactRetrieval(list(texts), list(texts.values()),
                                       self.EMBED_DIM)
        embed_ok = self._embeddings_ok(rows)
        train, test = (self._records(Path(paths["dataset"]) / name)
                       for name in ("train.jsonl", "test.jsonl"))
        records = train + test
        rnd.amount["curated_records"] += len(records)
        curated_ok = [rc_curate == 0 and embed_ok
                      and texts.get(r["context_id"]) is not None
                      and r["ground_truth"]
                      == oracles.first_sentence(texts[r["context_id"]])
                      and exact.check(r["q"], self.THETA, r["retrieved"])
                      for r in records]
        split_ok = (len(records) == n_chunks == len(texts)
                    and len(train) == int(n_chunks * self.TRAIN_FRAC))
        rnd.ops("curated records",
                curated_ok if split_ok else [False] * n_chunks)

        cfg = retrieval.RetrievalConfig(theta=self.THETA,
                                        target_size=corpus.one_sentence_budget(),
                                        overlap=0)
        embedder = retrieval.TrigramEmbedder(dim=self.EMBED_DIM)
        with rnd.timed("load"):
            store = retrieval.CorpusIndex.load(index_path)
        answers = []
        with rnd.timed("query"):
            for q in st.queries:
                answers.append(store.retrieve(q, cfg, embedder))
        rnd.amount["queries"] += len(st.queries)
        rnd.ops("retrieve calls",
                [exact.check(q, self.THETA, [h.chunk_id for h in hits],
                             [h.score for h in hits])
                 for q, hits in zip(st.queries, answers)])
        hits = st.probe.retrieve(PROBE_QUERY, st.probe_cfg, embedder)
        rnd.ops("probe retrieve calls",
                [st.probe_exact.check(PROBE_QUERY, st.probe_cfg.theta,
                                      [h.chunk_id for h in hits])],
                expected_fail=True)

        eval_cfg = evaluation.EvalConfig(embedder=embedder, retrieval=cfg,
                                         index=store,
                                         judges=[evaluation.StubJudge()])
        with rnd.timed("eval"):
            test_records = curation.load_records(
                Path(paths["dataset"]) / "test.jsonl")
            report = evaluation.evaluate(test_records, Reader(), "open",
                                         eval_cfg)
        rnd.amount["eval_records"] += len(test_records)
        n_test = n_chunks - int(n_chunks * self.TRAIN_FRAC)
        rnd.ops("evaluated records",
                self._check_eval(test_records, report, exact, texts)
                if len(test_records) == n_test else [False] * n_test)

    def _embeddings_ok(self, rows) -> bool:
        import numpy as np
        for row in rows:
            counts = np.zeros(self.EMBED_DIM)
            for bucket, n in oracles.trigram_counts(row["text"],
                                                    self.EMBED_DIM).items():
                counts[bucket] = n
            want = counts / np.sqrt(np.sum(counts * counts))
            if np.max(np.abs(np.asarray(row["embedding"]) - want)) > 1e-12:
                return False
        return True

    @staticmethod
    def _records(path: Path) -> list[dict]:
        if not path.is_file():
            return []
        return [json.loads(ln) for ln in path.read_text().splitlines() if ln]

    def _check_eval(self, records, report, exact, texts) -> list[bool]:
        ok = []
        ra = []
        scenarios = defaultdict(int)
        golden = []
        for r in records:
            hits_ok = exact.check(r.q, self.THETA, r.retrieved)
            kind = oracles.classify(r.retrieved, r.context_id)
            scenarios[kind] += 1
            want = (oracles.first_sentence(texts[r.retrieved[0]])
                    if r.retrieved else "I don't know.")
            value = oracles.recall_accuracy(r.open_response or "",
                                            r.ground_truth, self.EMBED_DIM)
            ra.append(value)
            good = hits_ok and r.open_response == want
            if kind == "golden_context":
                golden.append(len(ok))
                good = good and abs(value - 1.0) <= oracles.RA_TOL
            ok.append(good)
        summary_ok = (report.ra_open is not None
                      and abs(sum(ra) / len(ra) - report.ra_open)
                      <= oracles.RA_TOL
                      and all(report.scenario_counts.get(k, 0) == v
                              for k, v in scenarios.items())
                      and not report.partial)
        if golden and report.faith != 1.0:
            for i in golden:
                ok[i] = False
        return [good and summary_ok for good in ok]


WORKLOADS = {w.name: w for w in (ForgetShort(), CopyLong(), CorpusRag())}
