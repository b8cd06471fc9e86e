import pytest
from hypothesis import given
from hypothesis import strategies as st

import frameparse as fp
from frameparse.preprocess import WordlistError


class TestTokenize:
    def test_punctuation_kept(self):
        assert fp.tokenize("Paul intends to leave IBM.") == \
            ["Paul", "intends", "to", "leave", "IBM", "."]

    def test_empty(self):
        assert fp.tokenize("") == []

    def test_comma(self):
        assert fp.tokenize("a, b") == ["a", ",", "b"]

    def test_contraction_stays_whole(self):
        assert fp.tokenize("don't stop") == ["don't", "stop"]

    def test_non_ascii_letters_stay_in_words(self):
        assert fp.tokenize("the naïve child sleeps") == \
            ["the", "naïve", "child", "sleeps"]
        assert fp.tokenize("l'état-major, _x") == \
            ["l'état-major", ",", "_", "x"]


class TestTagging:
    def test_listed_word(self, demo_wordlist):
        tokens = fp.tag_tokens(["intends"], demo_wordlist)
        assert tokens[0].tag == "v"

    def test_unknown_capitalized_is_proper(self, demo_wordlist):
        tokens = fp.tag_tokens(["Hatfield", "blorp"], demo_wordlist)
        assert tokens[0].tag == "pn"
        assert tokens[1].tag == "n"

    def test_sentence_initial_capital_uses_lowercase_entry(self, demo_wordlist):
        tokens = fp.tag_tokens(["The", "child"], demo_wordlist)
        assert [t.tag for t in tokens] == ["det", "n"]
        assert tokens[0].lemma == "the"

    def test_token_count_preserved(self, demo_wordlist):
        words = fp.tokenize("the meeting will hear a greeting from the senator")
        assert len(fp.tag_tokens(words, demo_wordlist)) == len(words)

    def test_tags_stay_in_terminal_set(self, demo_wordlist, demo_normalized):
        for line in fp.demo_path("ppsuite.txt").read_text().splitlines():
            if not line.strip():
                continue
            for token in fp.tag_tokens(fp.tokenize(line), demo_wordlist):
                assert token.tag in demo_normalized.terminals

    def test_single_best_takes_first_listed(self):
        wl = fp.parse_wordlist("leave\tv,n\n")
        assert fp.tag_tokens(["leave"], wl)[0].tag == "v"

    def test_constructor_rejects_an_entry_without_tags(self):
        # the tagger once took such a word for an unknown common noun
        with pytest.raises(WordlistError, match="^no tags for 'sees'$"):
            fp.Wordlist({"the": ("det",), "sees": ()})

    def test_duplicate_wordlist_entry_rejected(self):
        with pytest.raises(WordlistError, match="duplicate"):
            fp.parse_wordlist("a\tdet\na\tn\n")

    def test_lemma_exceptions_duplicate_after_lowercasing_rejected(
            self, tmp_path):
        path = tmp_path / "dup.lemma_exceptions"
        path.write_text("sees\tv\tsee\nSees\tv\tseen\n")
        with pytest.raises(WordlistError, match="line 2: duplicate of line 1"):
            fp.load_lemma_exceptions(path)


class TestLemmatize:
    @pytest.mark.parametrize("surface,tag,lemma", [
        ("intends", "v", "intend"),
        ("hears", "v", "hear"),
        ("sees", "v", "see"),
        ("leaves", "v", "leave"),
        ("tries", "v", "try"),
        ("watches", "v", "watch"),
        ("goes", "v", "go"),
        ("agreed", "v", "agree"),
        ("tried", "v", "try"),
        ("intended", "v", "intend"),
        ("stopped", "v", "stop"),
        ("running", "v", "run"),
        ("hearing", "v", "hear"),
        ("letters", "n", "letter"),
        ("glasses", "n", "glass"),
        ("The", "det", "the"),
        (",", "punct", ","),
        ("", "n", ""),
    ])
    def test_suffix_rules(self, surface, tag, lemma):
        assert fp.Lemmatizer().lemmatize(surface, tag) == lemma

    def test_proper_noun_identity(self):
        assert fp.Lemmatizer().lemmatize("IBM", "pn") == "IBM"
        assert fp.Lemmatizer().lemmatize("Paul", "pn") == "Paul"

    def test_exception_blocks_ing_stripping(self, demo_lemmatizer):
        # without the exception the noun rule would strip -ing
        assert fp.Lemmatizer().lemmatize("greeting", "n") == "greet"
        assert demo_lemmatizer.lemmatize("greeting", "n") == "greeting"

    def test_exception_applies_after_suffix_rule(self, demo_lemmatizer):
        # greetings -> greeting (s rule), then the exception stops -ing
        assert demo_lemmatizer.lemmatize("greetings", "n") == "greeting"

    @given(st.text(alphabet="abcdefgilmnoprstuy", min_size=1, max_size=12),
           st.sampled_from(["v", "n", "pn", "det"]))
    def test_idempotent(self, word, tag):
        once = fp.Lemmatizer().lemmatize(word, tag)
        assert fp.Lemmatizer().lemmatize(once, tag) == once

    @given(st.text(alphabet="abcdefgilmnoprstuy", min_size=1, max_size=12),
           st.sampled_from(["v", "n"]))
    def test_idempotent_with_demo_exceptions(self, demo_lemmatizer, word, tag):
        once = demo_lemmatizer.lemmatize(word, tag)
        assert demo_lemmatizer.lemmatize(once, tag) == once

    def test_lemma_non_empty(self, demo_wordlist):
        for word in ("a", "s", "is", "golf"):
            assert fp.Lemmatizer().lemmatize(word, "n")
