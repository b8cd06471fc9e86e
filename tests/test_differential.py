"""A standing differential gate for parse tables, forests and rankings.

For a fixed list of ``oracles.random_grammar`` seeds, every
``random_sentences`` forest is hashed (node keys in insertion order,
each node's alternatives in order, and the root), and so is every
``unpack_n_best`` result for n = 1 and 5, with and without a lexical
share: each analysis's trace and the ``repr`` of both scores.  Odd seeds
draw random counts over the table's sorted keys; even seeds use the
uniform model, so that ties occur.  The demo ladder k = 0..12 and the
acquisition corpus are hashed the same way through the pipeline, with
the demo lexicon, together with their tokens.  The acquisition corpus,
cycled three times, is also run through ``observe_corpus`` at caps 0,
1, 2, 3 and 1000, hashing the store (frames in order and both sentence
counts) and the hypothesized entries, so that a cap that binds shows.
The ladder's rungs k = 0..4 and the acquisition corpus are run through
it too, at caps 0, 1, 3 and 1000, with the untrained (uniform) model,
under which the root margin of rungs 2 to 4 and of one corpus sentence
is 0: those sentences' top analyses are settled by the trace sort.
The parse tables of the demo grammar, of the same seeds' grammars and of
the 50- and 100-rule ``wide_grammar`` fixtures are hashed too: the state
count, the start state, the actions and the gotos (the non-terminal
entries of the ``moves`` rows), in their dict order.  The table of the
normalized ``english_grammar`` is hashed the same way, in a block of its
own.  The wide fixtures' rules have up to four daughters, so their
``random_sentences`` forests, and the uniform model's n = 5 rankings of
them, are hashed in a block too: there a reduction's paths run four
edges back.  The normalized ``english_grammar``'s ``random_sentences``
forests and PP chains are hashed with their n = 1 and 5 rankings under
the uniform model, whose ties are exact there, and under random counts,
each with and without a lexical share.  The demo's right-recursive
control chains, up to 2,005 tokens long, with and without a PP after
them, are parsed through the pipeline and only their tokens and forests
hashed: ranking them would recurse once per level.

One digest per block is stored in ``tests/golden/differential.tsv``, so
a failure names each block that moved.  After a deliberate change of a
table, a forest or a ranking, rewrite it with ``tests/golden/regenerate.py``.
"""

import hashlib
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import frameparse as fp
from oracles import (english_grammar, random_grammar, random_sentences,
                     wide_grammar)

DIGESTS = Path(__file__).resolve().parent / "golden" / "differential.tsv"

SEED_BLOCKS = {f"seeds-{low:03d}-{low + 99:03d}": range(low, low + 100)
               for low in range(0, 600, 100)}
LADDER = ["the child sees a dog" + " in the park" * k for k in range(13)]
WIDE_SHAPES = ((50, 10), (100, 12))  # (rules, non-terminals), 15 terminals
WIDE_SENTENCES = 400  # half parse; 30-50% of those use a 4-daughter rule
ENGLISH_SENTENCES = 200  # about half parse
# PP chains, where the exact ties of the uniform model pile up
ENGLISH_CHAINS = [["pn", "v", "det", "n"] + ["prep", "det", "n"] * k
                  for k in (1, 2, 4, 8)]
# A long deterministic stretch, then, with the PP, an attachment choice
CONTROL_CHAINS = ["Paul intends" + " to intend" * k + " to leave IBM" + pp
                  for pp in ("", " in the park")
                  for k in (0, 1, 8, 64, 1000)]


def _share(rule, daughters):
    # A few repeated values, so that tied totals occur; tenths are not
    # exact binary fractions, so the order of summing them shows.
    return -0.1 * ((rule.rule_id + daughters[0].start + daughters[-1].end) % 4)


def _hash_forest(digest, forest):
    for key, node in forest.nodes.items():
        alternatives = tuple((rule.rule_id, tuple((c.symbol, c.start, c.end)
                                                  for c in children))
                             for rule, children in node.alternatives)
        digest.update(repr((key, not node.alternatives, alternatives)).encode())
    root = forest.root
    root = (root.symbol, root.start, root.end) if root is not None else None
    digest.update(repr(("root", root)).encode())


def _hash_ranking(digest, analyses):
    digest.update(repr(("analyses", len(analyses))).encode())
    for analysis in analyses:
        digest.update(repr((analysis.derivation.actions,
                            repr(analysis.structural_logprob),
                            repr(analysis.lexical_logprob))).encode())


def _hash_rankings(digest, forest, model):
    for n in (1, 5):
        for lexical in (None, _share):
            _hash_ranking(digest, fp.unpack_n_best(forest, model, n, lexical))


def _random_counts(table, rng):
    return {key: Counter({action: rng.randint(0, 3)
                          for action in table.actions[key]})
            for key in sorted(table.actions)}


def _seed_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(seed)
        table = fp.build_table(random_grammar(rng))
        model = fp.ActionModel(table,
                               _random_counts(table, rng) if seed % 2 else None)
        for tags in random_sentences(table.grammar, rng, 6):
            forest = fp.glr_parse(tags, table)
            _hash_forest(digest, forest)
            _hash_rankings(digest, forest, model)
    return digest.hexdigest()


@lru_cache(maxsize=None)
def _demo_pipeline():
    grammar = fp.load_grammar(fp.demo_path("demo.grammar"))
    table = fp.build_table(fp.normalize_kleene(grammar))
    model, _ = fp.train_actions(
        fp.load_treebank(fp.demo_path("adversarial.treebank")), table)
    return fp.ParserPipeline(
        grammar, table=table, model=model,
        wordlist=fp.load_wordlist(fp.demo_path("demo.wordlist")),
        lemmatizer=fp.Lemmatizer(fp.load_lemma_exceptions(
            fp.demo_path("demo.lemma_exceptions"))),
        lexicon=fp.load_lexicon(fp.demo_path("demo.lexicon")))


def _demo_digest(sentences) -> str:
    pipeline = _demo_pipeline()
    digest = hashlib.sha256()
    for sentence in sentences:
        tokens = pipeline.tag(sentence)
        digest.update(repr(tokens).encode())
        forest = pipeline.parse_tags([token.tag for token in tokens])
        _hash_forest(digest, forest)
        for n in (1, 5):
            for lexicalized in (False, True):
                _hash_ranking(digest, pipeline.rank(forest, tokens, n,
                                                    lexicalized))
    return digest.hexdigest()


def _demo_forest_digest(sentences) -> str:
    pipeline = _demo_pipeline()
    digest = hashlib.sha256()
    for sentence in sentences:
        tokens = pipeline.tag(sentence)
        digest.update(repr(tokens).encode())
        _hash_forest(digest, pipeline.parse_tags([token.tag
                                                  for token in tokens]))
    return digest.hexdigest()


def _acquisition_sentences():
    return [line for line in
            fp.demo_path("acquisition.txt").read_text().splitlines()
            if line.strip()]


def _uniform_pipeline():
    demo = _demo_pipeline()
    return fp.ParserPipeline(demo.grammar, table=demo.table,
                             wordlist=demo.wordlist,
                             lemmatizer=demo.lemmatizer)


def _store_digest(sentences, pipeline, caps) -> str:
    digest = hashlib.sha256()
    for cap in caps:
        store = fp.observe_corpus(sentences, pipeline, cap=cap)
        digest.update(repr((cap, store.frames, store.parsed_sentences,
                            store.skipped_sentences)).encode())
        digest.update(repr(fp.hypothesize_entries(store).entries()).encode())
    return digest.hexdigest()


def _table_grammars():
    demo = fp.load_grammar(fp.demo_path("demo.grammar"))
    grammars = [fp.normalize_kleene(demo)]
    grammars += [random_grammar(random.Random(seed)) for seed in range(600)]
    grammars += [wide_grammar(random.Random(0), rules, nonterminals, 15)
                 for rules, nonterminals in WIDE_SHAPES]
    return grammars


def _table_digest(grammars) -> str:
    digest = hashlib.sha256()
    for grammar in grammars:
        table = fp.build_table(grammar)
        gotos = [((state, symbol), target)
                 for state, row in enumerate(table.moves)
                 for symbol, target in row.items()
                 if symbol in grammar.nonterminals]
        digest.update(repr((table.n_states, table.start_state,
                            list(table.actions.items()), gotos)).encode())
    return digest.hexdigest()


def _wide_forest_digest() -> str:
    digest = hashlib.sha256()
    for rules, nonterminals in WIDE_SHAPES:
        rng = random.Random(0)
        grammar = wide_grammar(rng, rules, nonterminals, 15)
        table = fp.build_table(grammar)
        model = fp.ActionModel(table)
        for tags in random_sentences(grammar, rng, WIDE_SENTENCES):
            forest = fp.glr_parse(tags, table)
            _hash_forest(digest, forest)
            _hash_ranking(digest, fp.unpack_n_best(forest, model, 5))
    return digest.hexdigest()


def _english_forest_digest() -> str:
    grammar = fp.normalize_kleene(english_grammar())
    table = fp.build_table(grammar)
    rng = random.Random(0)
    sentences = random_sentences(grammar, rng, ENGLISH_SENTENCES)
    models = (fp.ActionModel(table),
              fp.ActionModel(table, _random_counts(table, rng)))
    digest = hashlib.sha256()
    for tags in sentences + ENGLISH_CHAINS:
        forest = fp.glr_parse(tags, table)
        _hash_forest(digest, forest)
        for model in models:
            _hash_rankings(digest, forest, model)
    return digest.hexdigest()


BLOCKS = {**{name: (lambda seeds=seeds: _seed_digest(seeds))
             for name, seeds in SEED_BLOCKS.items()},
          "demo-ladder": lambda: _demo_digest(LADDER),
          "demo-acquisition": lambda: _demo_digest(_acquisition_sentences()),
          "demo-control-chains": lambda: _demo_forest_digest(CONTROL_CHAINS),
          "demo-acquisition-store":
              lambda: _store_digest(_acquisition_sentences() * 3,
                                    _demo_pipeline(), (0, 1, 2, 3, 1000)),
          "demo-acquisition-store-uniform":
              lambda: _store_digest(LADDER[:5] + _acquisition_sentences(),
                                    _uniform_pipeline(), (0, 1, 3, 1000)),
          "wide-forests": _wide_forest_digest,
          "tables": lambda: _table_digest(_table_grammars()),
          "english-table":
              lambda: _table_digest([fp.normalize_kleene(english_grammar())]),
          "english-forests": _english_forest_digest}


def digests() -> str:
    """The contents of the digest file for the current tree."""
    return "".join(f"{name}\t{block()}\n" for name, block in BLOCKS.items())


def _stored() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t") for line in lines)


def test_stored_blocks_are_the_blocks():
    assert list(_stored()) == list(BLOCKS)


@pytest.mark.parametrize("name", list(BLOCKS))
def test_block_digest_unchanged(name):
    assert BLOCKS[name]() == _stored()[name]
