import pytest

import frameparse as fp


@pytest.fixture(scope="session")
def demo_grammar():
    return fp.load_grammar(fp.demo_path("demo.grammar"))


@pytest.fixture(scope="session")
def demo_normalized(demo_grammar):
    return fp.normalize_kleene(demo_grammar)


@pytest.fixture(scope="session")
def demo_table(demo_normalized):
    return fp.build_table(demo_normalized)


@pytest.fixture(scope="session")
def demo_wordlist():
    return fp.load_wordlist(fp.demo_path("demo.wordlist"))


@pytest.fixture(scope="session")
def demo_lemmatizer():
    return fp.Lemmatizer(
        fp.load_lemma_exceptions(fp.demo_path("demo.lemma_exceptions")))


@pytest.fixture(scope="session")
def uniform_pipeline(demo_grammar, demo_table, demo_wordlist, demo_lemmatizer):
    return fp.ParserPipeline(demo_grammar, table=demo_table,
                             wordlist=demo_wordlist, lemmatizer=demo_lemmatizer)


def _demo_model(name, table):
    model, skipped = fp.train_actions(fp.load_treebank(fp.demo_path(name)),
                                      table)
    assert skipped == []
    return model


@pytest.fixture(scope="session")
def trained_model(demo_table):
    return _demo_model("train.treebank", demo_table)


@pytest.fixture(scope="session")
def adversarial_model(demo_table):
    return _demo_model("adversarial.treebank", demo_table)


@pytest.fixture(scope="session")
def adversarial_pipeline(demo_grammar, demo_table, adversarial_model,
                         demo_wordlist, demo_lemmatizer):
    return fp.ParserPipeline(demo_grammar, table=demo_table,
                             model=adversarial_model, wordlist=demo_wordlist,
                             lemmatizer=demo_lemmatizer)


@pytest.fixture(scope="session")
def acquired_lexicon(adversarial_pipeline):
    sentences = [line for line in
                 fp.demo_path("acquisition.txt").read_text().splitlines()
                 if line.strip()]
    store = fp.observe_corpus(sentences, adversarial_pipeline, cap=1000)
    return fp.hypothesize_entries(store)


@pytest.fixture(scope="session")
def lexicalized_pipeline(demo_grammar, demo_table, adversarial_model,
                         demo_wordlist, demo_lemmatizer, acquired_lexicon):
    return fp.ParserPipeline(demo_grammar, table=demo_table,
                             model=adversarial_model, wordlist=demo_wordlist,
                             lemmatizer=demo_lemmatizer,
                             lexicon=acquired_lexicon)


@pytest.fixture(scope="session")
def suite_sentences():
    return [line for line in
            fp.demo_path("ppsuite.txt").read_text().splitlines()
            if line.strip()]


@pytest.fixture(scope="session")
def suite_gold_grs():
    return fp.read_gr_file(fp.demo_path("ppsuite_gold.grs").read_text())


@pytest.fixture(scope="session")
def suite_gold_trees():
    return fp.load_treebank(fp.demo_path("ppsuite_gold.treebank"))
