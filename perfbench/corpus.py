"""Seeded synthetic multi-domain corpus for the corpus-rag workload.

Each document is a list of one-line sentences shaped "The <subject>
<verb>s the <adjective> <noun> <preposition> the <place>.", the shape
the stub question generator turns into "What does the <subject>
<verb>?". Subjects are made-up words, so a question shares its rare
trigrams with few chunks; verbs, adjectives and nouns come from six
domain vocabularies, so chunks of a domain share the common ones.
Sentence lengths are bounded so that the chunk budget the workload uses
holds exactly one sentence: the corpus has the same number of chunks,
records and test records for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracles

DOMAINS = {
    "astronomy": (
        ["comet", "nebula", "pulsar", "quasar", "moon", "planet", "star",
         "meteor", "galaxy", "crater", "eclipse", "probe", "asteroid",
         "corona"],
        ["orbit", "outshine", "circle", "drift", "warm", "hide", "dim",
         "shadow"],
        ["pale", "distant", "icy", "bright", "dim", "red", "young",
         "ancient"]),
    "botany": (
        ["fern", "willow", "orchid", "cactus", "moss", "tulip", "maple",
         "lichen", "clover", "bamboo", "lotus", "thistle", "poppy", "yarrow"],
        ["shade", "shelter", "climb", "cover", "feed", "root", "crowd",
         "choke"],
        ["green", "wild", "tall", "tiny", "fragrant", "hardy", "wet",
         "thorny"]),
    "geology": (
        ["basalt", "granite", "quartz", "shale", "magma", "fault", "geyser",
         "glacier", "dune", "mesa", "canyon", "delta", "boulder", "slate"],
        ["erode", "split", "carve", "bury", "melt", "fill", "lift", "scar"],
        ["grey", "porous", "dense", "molten", "jagged", "smooth", "layered",
         "dry"]),
    "cooking": (
        ["broth", "dough", "sauce", "skillet", "ladle", "custard", "pastry",
         "griddle", "brine", "batter", "risotto", "crust", "kettle", "oven"],
        ["thicken", "season", "heat", "glaze", "coat", "soak", "sweeten",
         "crisp"],
        ["salty", "sweet", "golden", "bitter", "creamy", "smoky", "spicy",
         "tender"]),
    "sailing": (
        ["anchor", "mast", "hull", "keel", "rudder", "sail", "buoy", "winch",
         "cleat", "hatch", "galley", "jib", "tiller", "capstan"],
        ["brace", "steer", "hoist", "secure", "lower", "trim", "tow",
         "drag"],
        ["salted", "weathered", "sturdy", "slack", "taut", "wooden",
         "painted", "rusty"]),
    "music": (
        ["cello", "fiddle", "oboe", "drum", "lute", "harp", "chorus",
         "sonata", "cymbal", "bugle", "organ", "anthem", "ballad", "flute"],
        ["accent", "cue", "drown", "follow", "lead", "answer", "tune",
         "soften"],
        ["loud", "muted", "brassy", "mellow", "shrill", "deep", "soft",
         "lively"]),
}
PLACES = ["harbor", "valley", "market", "chapel", "meadow", "cellar", "tower",
          "garden", "quarry", "station", "library", "pier"]
PREPOSITIONS = ["near", "beside", "behind", "above", "below", "inside"]
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
SUBJECT_LEN = 9
MAX_REDRAWS = 50


def _subject(rng: random.Random) -> str:
    syllables = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                        for _ in range(4))
    return syllables + rng.choice("lnrst")


def _render(subject: str, verb: str, adjective: str, noun: str,
            preposition: str, place: str) -> str:
    return (f"The {subject} {verb}s the {adjective} {noun} {preposition} "
            f"the {place}.")


def sentence(rng: random.Random, domain: str, subject: str) -> str:
    nouns, verbs, adjectives = DOMAINS[domain]
    return _render(subject, rng.choice(verbs), rng.choice(adjectives),
                   rng.choice(nouns), rng.choice(PREPOSITIONS),
                   rng.choice(PLACES))


def _length_bounds() -> tuple[int, int]:
    """Shortest and longest sentence the templates can produce."""
    fixed = len(_render("", "", "", "", "", "")) + SUBJECT_LEN
    lengths = []
    for nouns, verbs, adjectives in DOMAINS.values():
        groups = (verbs, adjectives, nouns, PREPOSITIONS, PLACES)
        for pick in (min, max):
            lengths.append(fixed + sum(pick(len(w) for w in g)
                                       for g in groups))
    return min(lengths), max(lengths)


def one_sentence_budget() -> int:
    """A chunk budget that fits any one sentence line but never two."""
    lo, hi = _length_bounds()
    budget = hi + 1                  # sentence plus its newline
    if 2 * (lo + 1) <= budget:
        raise ValueError("sentence lengths vary too much for one-sentence "
                         "chunks")
    return budget


def stub_question(sentence_text: str) -> str:
    """The question the stub generator asks about a corpus sentence."""
    words = sentence_text.rstrip(".").split()
    return f"What does {words[0].lower()} {words[1]} {words[2][:-1]}?"


@dataclass
class Corpus:
    docs: list[tuple[str, str, list[str]]]   # (domain, doc name, lines)
    queries: list[str]


def build(seed: int, n_docs: int, lines_per_doc: int, n_queries: int,
          theta: float, dim: int) -> Corpus:
    """Seeded documents and fresh queries, free of rounding-sensitive cases.

    A question or query whose exact hit list has two equal cosines, or a
    cosine exactly at theta, leaves the retrieval order or cut-off to
    float rounding. The sentences involved are drawn again until no
    question has such a case, and such queries are skipped; the fixed
    probe in the workload shows that fault instead.
    """
    rng = random.Random(seed)
    domains = sorted(DOMAINS)
    doc_domain = [domains[d % len(domains)] for d in range(n_docs)]
    lines = [sentence(rng, doc_domain[i // lines_per_doc], _subject(rng))
             for i in range(n_docs * lines_per_doc)]
    for _ in range(MAX_REDRAWS):
        exact = oracles.ExactRetrieval(range(len(lines)),
                                       [s + "\n" for s in lines], dim)
        involved = set().union(*exact.ambiguous(
            [stub_question(s) for s in lines], theta))
        if not involved:
            break
        for i in sorted(involved):
            lines[i] = sentence(rng, doc_domain[i // lines_per_doc],
                                _subject(rng))
    else:
        raise RuntimeError(f"corpus still has rounding-sensitive questions "
                           f"after {MAX_REDRAWS} redraws")
    subjects = [s.split()[1] for s in lines]
    verbs = sorted({v for _, vs, _ in DOMAINS.values() for v in vs})
    queries: list[str] = []
    while len(queries) < n_queries:
        batch = [f"What does the {rng.choice(subjects)} {rng.choice(verbs)}?"
                 for _ in range(n_queries - len(queries))]
        queries += [q for q, bad in zip(batch, exact.ambiguous(batch, theta))
                    if not bad]
    docs = [(doc_domain[d], f"doc{d:04d}",
             lines[d * lines_per_doc:(d + 1) * lines_per_doc])
            for d in range(n_docs)]
    return Corpus(docs, queries)


def write(corpus: Corpus, root: Path) -> None:
    """One text file per document under root/<domain>/."""
    for domain, name, lines in corpus.docs:
        path = root / domain / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
