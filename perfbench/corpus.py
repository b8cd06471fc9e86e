"""Seeded acquisition corpus for the ``acquire-corpus`` workload.

The corpus is a sequence of blocks of 20 sentences with fixed template
shares, shuffled within each block, so that every seed yields the same
mix of cost classes and only the words change:

    11 transitive      the N Vs a N             frame NP
     4 intransitive    the N Vs                 frame NONE
     4 one PP          the N Vs a N P the N     NP or NP_PP (3 derivations)
     1 control         PN intends to leave PN   intend VPINF, leave NP

Per-sentence cost rises in that order (intransitive < transitive <
control < PP), so the transitive class spans the 20th to 75th
percentiles and the median never falls on a class boundary.  Verbs are
drawn with unequal weights so that the per-verb cap binds for the
frequent verbs and not for the rare ones.

Every word comes from the demo wordlist; the third-person form of each
verb is its lemma plus ``s``.  Run ``python3 perfbench/corpus.py --seed N``
to print the corpus of a seed.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass

BLOCK = (("transitive", 11), ("intransitive", 4), ("pp", 4), ("control", 1))
BLOCK_SIZE = sum(count for _, count in BLOCK)
BLOCKS = 100
SENTENCES = BLOCKS * BLOCK_SIZE
CAP = 200

TRANSITIVE_VERBS = {"see": 6, "read": 5, "write": 4, "hear": 3,
                    "open": 1, "admit": 1, "leave": 1}
INTRANSITIVE_VERBS = {"sleep": 2, "arrive": 1}
NOUNS = ("meeting", "greeting", "senator", "child", "dog", "park", "report",
         "budget", "teacher", "letter", "plan", "committee", "speech", "man",
         "story", "garden", "woman", "school", "student", "proposal")
PROPER = ("Paul", "IBM", "Mary", "John", "Salem", "Mark", "Hatfield")
PREPS = ("in", "about", "near", "with", "from")

# Frames a v-NP-PP sentence may receive: the PP attaches to the object
# or the VP (frame NP) or is the verb's argument (frame NP_PP).
PP_FRAMES = frozenset({"NP", "NP_PP"})


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[str, ...]
    # One (lemma, frame) per verb token in corpus order; frame is None
    # for the PP-attachment verb, whose frame the parser decides.
    verbs: tuple[tuple[str, str | None], ...]


def _pick(rng, weights):
    return rng.choices(list(weights), weights=list(weights.values()))[0]


def generate(seed):
    rng = random.Random(seed)
    out, verbs = [], []
    for _ in range(BLOCKS):
        kinds = [kind for kind, count in BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            subject, obj, pp_noun = (rng.choice(NOUNS) for _ in range(3))
            if kind == "transitive":
                verb = _pick(rng, TRANSITIVE_VERBS)
                out.append(f"the {subject} {verb}s a {obj}")
                verbs.append((verb, "NP"))
            elif kind == "intransitive":
                verb = _pick(rng, INTRANSITIVE_VERBS)
                out.append(f"the {subject} {verb}s")
                verbs.append((verb, "NONE"))
            elif kind == "pp":
                verb = _pick(rng, TRANSITIVE_VERBS)
                out.append(f"the {subject} {verb}s a {obj} "
                           f"{rng.choice(PREPS)} the {pp_noun}")
                verbs.append((verb, None))
            else:
                out.append(f"{rng.choice(PROPER)} intends to leave "
                           f"{rng.choice(PROPER)}")
                verbs.extend((("intend", "VPINF"), ("leave", "NP")))
    return Corpus(tuple(out), tuple(verbs))


def expected_observations(corpus):
    """Per lemma, the first ``CAP`` expected frames in corpus order (None
    where the parser decides), as the acquisition pass should keep them."""
    kept: dict[str, list] = {}
    for lemma, frame in corpus.verbs:
        frames = kept.setdefault(lemma, [])
        if len(frames) < CAP:
            frames.append(frame)
    return kept


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print("\n".join(generate(args.seed).sentences))


if __name__ == "__main__":
    main()
