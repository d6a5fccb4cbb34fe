"""Directional toy experiments: sequential-task retention and the
open-book versus closed-book gap.

Neither experiment claims benchmark-scale numbers. The retention run
asks whether routing new material through a mixture disturbs old
material less than pushing it through one shared adapter; the open-book
run asks whether a model trained to copy answers out of its context
beats the same model asked from parameters alone. Both are built from
synthetic fixtures small enough to train in minutes on a CPU.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .evaluation import RA_WEIGHTS, EvalConfig, compute_ra, evaluate
from .model import AdapterSpec, ToyCausalLm, ToyModelConfig
from .retrieval import (CorpusIndex, RetrievalConfig, TrigramEmbedder,
                        build_corpus_index)
from .curation import QaRecord
from .training import TrainConfig, TrainExample, train

# Sequential-task fixture. The two tasks use disjoint content words so
# that learning one gives no signal about the other: task A maps
# household objects to colors, task B maps nautical objects to digit
# codes, and the only shared tokens are the question scaffolding.

TASK_A_ITEMS = [
    ("lamp", "teal"), ("door", "red"), ("sofa", "blue"), ("vase", "gold"),
    ("rug", "green"), ("desk", "white"), ("bell", "pink"), ("cup", "black"),
    ("fan", "brown"), ("clock", "gray"), ("shelf", "plum"), ("stool", "rust"),
    ("mirror", "jade"), ("chair", "ivory"), ("plate", "amber"),
    ("kettle", "coral"),
]

TASK_B_ITEMS = [
    ("anchor", "7"), ("mast", "3"), ("hull", "9"), ("keel", "2"),
    ("bow", "5"), ("stern", "8"), ("deck", "1"), ("sail", "6"),
    ("oar", "4"), ("buoy", "0"), ("winch", "27"), ("rudder", "35"),
    ("cleat", "81"), ("davit", "46"), ("hatch", "92"), ("galley", "58"),
]


def make_task_a() -> list[TrainExample]:
    return [TrainExample(prompt=f"Q: What color is the {obj}?\nA: ",
                         answer=color) for obj, color in TASK_A_ITEMS]


def make_task_b() -> list[TrainExample]:
    # A deliberately alien format: no token of the task-A scaffold
    # reappears, so phase-B gradients touch task-A prompt positions as
    # little as the tasks' content words do.
    return [TrainExample(prompt=f"CODE[{obj}] => ",
                         answer=code) for obj, code in TASK_B_ITEMS]


def task_recall(model: ToyCausalLm, examples: list[TrainExample],
                embedder) -> float:
    """Mean recall accuracy of greedy completions against the answers."""
    total = 0.0
    for ex in examples:
        response = model.generate_text(ex.prompt, max_new_tokens=16)
        total += compute_ra(response, ex.answer, RA_WEIGHTS, embedder)
    return total / len(examples)


# Matched trainable budgets per layer at d_model=64, d_ff=128: four
# rank-2 experts plus their router hold 4*(2*64 + 128*2) + 64*4 = 1792
# scalars, and so does the comparison arm, one rank-9 expert
# (9*64 + 128*9 = 1728) plus its 64-scalar router. A lone expert's
# weight is always 1, so that router gets zero gradient and never moves:
# the arm is one plain low-rank adapter. Both use the same alpha/rank
# scale of 2.
FORGETTING_MIXTURE = AdapterSpec(n_experts=4, top_k=2, rank=2, alpha=4.0)
FORGETTING_SINGLE = AdapterSpec(n_experts=1, top_k=1, rank=9, alpha=18.0)

FORGETTING_MODEL = dict(vocab_size=256, d_model=64, n_layers=2, n_heads=2,
                        d_ff=128, max_seq_len=64)
# Full-batch Adam at this rate, for this many epochs on task A, then B.
FORGETTING_LR = 1e-3
FORGETTING_EPOCHS = (800, 200)


@dataclass
class ForgettingTrial:
    seed: int
    kind: str
    ra_a_after_a: float
    ra_a_after_b: float
    ra_b_after_b: float

    @property
    def retention(self) -> float:
        return self.ra_a_after_b


@dataclass
class ForgettingResult:
    trials: list[ForgettingTrial] = field(default_factory=list)

    def pairs(self) -> list[tuple[ForgettingTrial, ForgettingTrial]]:
        by_seed: dict[int, dict[str, ForgettingTrial]] = {}
        for t in self.trials:
            by_seed.setdefault(t.seed, {})[t.kind] = t
        return [(d["mixture"], d["single"]) for _, d in sorted(by_seed.items())]

    @property
    def wins(self) -> int:
        """Seeds on which the mixture retains strictly more."""
        return sum(1 for mixture, single in self.pairs()
                   if mixture.retention > single.retention)

    @property
    def losses(self) -> int:
        return sum(1 for mixture, single in self.pairs()
                   if mixture.retention < single.retention)

    @property
    def ties(self) -> int:
        return len(self.pairs()) - self.wins - self.losses

    @property
    def passed(self) -> bool:
        return self.wins > self.losses

    def summary(self) -> str:
        lines = ["seed  kind     RA(A|A)  RA(A|B)  RA(B|B)"]
        for t in sorted(self.trials, key=lambda t: (t.seed, t.kind)):
            lines.append(f"{t.seed:4d}  {t.kind:7s}  {t.ra_a_after_a:7.4f}"
                         f"  {t.ra_a_after_b:7.4f}  {t.ra_b_after_b:7.4f}")
        lines.append(f"mixture retains more on {self.wins}, less on "
                     f"{self.losses} and as much on {self.ties} of "
                     f"{len(self.pairs())} seed(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "trials": [vars(t) for t in
                       sorted(self.trials, key=lambda t: (t.seed, t.kind))],
            "wins": self.wins,
            "losses": self.losses,
            "ties": self.ties,
            "seeds": len(self.pairs()),
            "passed": self.passed,
        }, sort_keys=True)


def run_forgetting_trial(seed: int, adapters, kind: str) -> ForgettingTrial:
    """Train on task A, then task B, probing task-A recall both times.

    The probe reuses the task-A training items: the mappings are
    arbitrary, so held-out items are unanswerable by construction and
    recall on the learned set is the only meaningful retention signal.
    The optimizer starts fresh for each phase.
    """
    model = ToyCausalLm(ToyModelConfig(seed=seed, **FORGETTING_MODEL),
                        adapters=adapters)
    task_a, task_b = make_task_a(), make_task_b()
    embedder = TrigramEmbedder(dim=256)
    epochs_a, epochs_b = FORGETTING_EPOCHS
    base = dict(lr=FORGETTING_LR, batch_size=len(task_a), seed=seed)
    train(model, task_a, TrainConfig(epochs=epochs_a, **base))
    ra_a_after_a = task_recall(model, task_a, embedder)
    train(model, task_b, TrainConfig(epochs=epochs_b, **base))
    return ForgettingTrial(seed=seed, kind=kind,
                           ra_a_after_a=ra_a_after_a,
                           ra_a_after_b=task_recall(model, task_a, embedder),
                           ra_b_after_b=task_recall(model, task_b, embedder))


def run_forgetting_experiment(seeds=(0, 1, 2, 3, 4)) -> ForgettingResult:
    result = ForgettingResult()
    for seed in seeds:
        result.trials.append(run_forgetting_trial(
            seed, FORGETTING_MIXTURE, "mixture"))
        result.trials.append(run_forgetting_trial(
            seed, FORGETTING_SINGLE, "single"))
    return result


# Open-book copy fixture. Every room sentence has the same shape and
# length (objects are four letters, rooms five, colors four), so the
# answer always sits at the same byte offset of the filled prompt;
# copying it out of context is learnable from position alone. Each room
# gets its own object word, which keeps the question lexically close to
# its golden chunk and far from every other chunk. Colors are assigned
# at random so parameters alone carry no signal about held-out rooms.

ROOM_WORDS = [
    "attic", "foyer", "porch", "study", "suite", "lobby", "vault", "salon",
    "annex", "cabin", "kiosk", "booth", "court", "patio", "plaza", "crypt",
    "forge", "aisle", "berth", "depot", "haven", "jetty", "ledge", "manor",
    "oasis", "ranch", "shack", "tower", "vista", "wharf", "choir", "islet",
]

OBJECT_WORDS = [
    "lamp", "sofa", "vase", "bell", "door", "desk", "oven", "sink",
    "bath", "bunk", "crib", "fern", "harp", "drum", "flag", "mask",
    "rake", "vane", "loom", "kiln", "cart", "boat", "kite", "tent",
    "pump", "gong", "sled", "dial", "hose", "bowl", "fork", "tray",
]

COPY_COLORS = ["teal", "blue", "gold", "gray", "jade", "pink", "plum", "rust"]
# Training prompts draw objects and rooms from the first COPY_POOL words.
COPY_POOL = 8
# At this threshold each held-out question retrieves only its own room.
COPY_THETA = 0.65
OPENBOOK_LR = 2e-3


def room_sentence(obj: str, room: str, color: str) -> str:
    return f"The {obj} in the {room} is {color}."


def room_question(obj: str, room: str) -> str:
    return f"What color is the {obj} in the {room}?"


@dataclass
class CopyFixture:
    train_examples: list[TrainExample]
    test_records: list[QaRecord]
    index: CorpusIndex
    retrieval: RetrievalConfig


def build_copy_fixture(seed: int = 0, n_train_rooms: int = 26,
                       n_train_examples: int = 256) -> CopyFixture:
    """Room-color corpus with held-out rooms and copy-only training data.

    Training examples are fully rendered open-book prompts drawn from a
    small pool of object-room pairs, with the stated color resampled
    per example. Every pair recurs with contradictory colors, so no
    mapping from identities to answers fits the data; reading the color
    out of the context is the only consistent strategy. Test records
    carry the held-out rooms' questions; their corpus sentences, one
    chunk per room, are what retrieval must surface.
    """
    import numpy as np
    from . import prompts

    rng = np.random.default_rng(seed)
    colors = [COPY_COLORS[i] for i in
              rng.integers(0, len(COPY_COLORS), size=len(ROOM_WORDS))]
    triples = list(zip(OBJECT_WORDS, ROOM_WORDS, colors))
    cfg = RetrievalConfig(theta=COPY_THETA, target_size=200, overlap=0)
    docs = [(f"room-{room}", room_sentence(obj, room, color))
            for obj, room, color in triples]
    index = build_corpus_index(docs, cfg, TrigramEmbedder(dim=256))

    train_examples = []
    for _ in range(n_train_examples):
        obj = OBJECT_WORDS[rng.integers(0, COPY_POOL)]
        room = ROOM_WORDS[rng.integers(0, min(COPY_POOL, n_train_rooms))]
        color = COPY_COLORS[rng.integers(0, len(COPY_COLORS))]
        prompt = prompts.open_book_prompt(room_sentence(obj, room, color),
                                          room_question(obj, room))
        train_examples.append(TrainExample(prompt=prompt, answer=color))

    test_records = []
    for obj, room, color in triples[n_train_rooms:]:
        test_records.append(QaRecord(q=room_question(obj, room),
                                     context_id=f"room-{room}:0000",
                                     retrieved=[],
                                     ground_truth=color,
                                     domain_tag="rooms"))
    return CopyFixture(train_examples=train_examples,
                       test_records=test_records, index=index, retrieval=cfg)


@dataclass
class OpenClosedResult:
    ra_open: float
    ra_closed: float
    scenario_counts: dict[str, int]

    @property
    def passed(self) -> bool:
        return self.ra_open > self.ra_closed

    def summary(self) -> str:
        return (f"RA open {self.ra_open:.4f} vs closed {self.ra_closed:.4f} "
                f"({'open wins' if self.passed else 'no gap'}); "
                f"scenarios {json.dumps(self.scenario_counts, sort_keys=True)}")


def run_openbook_experiment(seed: int = 0, epochs: int = 64
                            ) -> OpenClosedResult:
    """Train the copy task on seen rooms, compare eval modes on unseen.

    Open mode retrieves each held-out room's sentence, so the filled
    prompt matches the training shape and the answer is present
    verbatim. Closed mode withholds context, leaving the model only its
    parameters, which never saw the held-out assignments. A single
    transformer block is enough here: its attention moves context bytes
    onto the final position and the adapted FFN reads the color out,
    and the shallower model roughly halves the step cost.
    """
    fixture = build_copy_fixture(seed=seed)
    model_cfg = ToyModelConfig(vocab_size=256, d_model=64, n_layers=1,
                               n_heads=2, d_ff=128, max_seq_len=384,
                               seed=seed)
    model = ToyCausalLm(model_cfg,
                        adapters=AdapterSpec(n_experts=4, top_k=2, rank=8,
                                             alpha=16.0))
    cfg = TrainConfig(lr=OPENBOOK_LR, batch_size=8, epochs=epochs, seed=seed)
    train(model, fixture.train_examples, cfg)

    embedder = TrigramEmbedder(dim=256)
    eval_cfg = EvalConfig(embedder=embedder, retrieval=fixture.retrieval,
                          index=fixture.index, max_new_tokens=12)
    open_report = evaluate(fixture.test_records, model, "open", eval_cfg)
    closed_report = evaluate(fixture.test_records, model, "closed", eval_cfg)
    return OpenClosedResult(ra_open=open_report.ra_open,
                            ra_closed=closed_report.ra_closed,
                            scenario_counts=open_report.scenario_counts)
