import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameparse as fp
from frameparse.frames import DEFAULT_FRAME_INVENTORY
from frameparse.lexicon import LexiconError


def test_inventory_size():
    assert len(DEFAULT_FRAME_INVENTORY) == 29
    assert len(set(DEFAULT_FRAME_INVENTORY)) == 29
    assert "NP_PP" in DEFAULT_FRAME_INVENTORY
    assert "NONE" in DEFAULT_FRAME_INVENTORY


def test_load_normalizes_relfreq():
    lex = fp.parse_lexicon("hear\tNP\t3\t0.75\nhear\tNP_PP\t1\t0.25\n")
    assert [(e.lemma, e.frame, e.count) for e in lex.entries()] == \
        [("hear", "NP", 3), ("hear", "NP_PP", 1)]
    [np, np_pp] = lex.entries()
    assert np.relfreq == pytest.approx(0.75)
    assert np_pp.relfreq == pytest.approx(0.25)


def test_unknown_frame_rejected():
    with pytest.raises(LexiconError, match="NP_QQ"):
        fp.parse_lexicon("hear\tNP_QQ\t3\t1.0\n")


def test_negative_count_rejected():
    with pytest.raises(LexiconError):
        fp.parse_lexicon("hear\tNP\t-3\t1.0\n")


@pytest.mark.parametrize("count", ["nan", "inf"])
def test_non_finite_count_rejected(count):
    with pytest.raises(LexiconError, match="line 2: count"):
        fp.parse_lexicon(f"hear\tNP\t1\t0.5\nhear\tPP\t{count}\t0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(LexiconError, match="duplicate"):
        fp.parse_lexicon("hear\tNP\t3\t0.5\nhear\tNP\t3\t0.5\n")


def test_inconsistent_relfreq_rejected():
    with pytest.raises(LexiconError, match="disagrees"):
        fp.parse_lexicon("hear\tNP\t3\t0.5\nhear\tNP_PP\t1\t0.5\n")


def test_constructor_rejects_unknown_frame_negative_count_and_duplicate():
    see = fp.SubcatEntry("see", "NP", 1, 1.0)
    with pytest.raises(LexiconError, match="unknown frame 'NP_QQ' for 'see'"):
        fp.SubcatLexicon([see._replace(frame="NP_QQ")])
    with pytest.raises(LexiconError, match="negative"):
        fp.SubcatLexicon([see._replace(count=-1)])
    with pytest.raises(LexiconError, match="duplicate entry 'see'/NP"):
        fp.SubcatLexicon([see, see])


@pytest.mark.parametrize("count, shown", [
    (math.inf, "inf"), (math.nan, "nan"), (-0.5, "-0.5")])
def test_constructor_rejects_what_the_reader_rejects(count, shown):
    # an infinite count would make frame_logprob return nan
    with pytest.raises(LexiconError, match=re.escape(
            f"count {shown} for 'see'/NP is negative or not finite")):
        fp.SubcatLexicon([fp.SubcatEntry("see", "NP", count, 1.0)])


def test_constructor_rejects_a_zero_total_and_a_stray_relfreq():
    with pytest.raises(LexiconError,
                       match="^lemma 'see' has zero total count$"):
        fp.SubcatLexicon([fp.SubcatEntry("see", "NP", 0, 0.0)])
    with pytest.raises(LexiconError, match=re.escape(
            "stored relfreq 0.5 disagrees with count-derived 0.750000")):
        fp.SubcatLexicon([fp.SubcatEntry("see", "NP", 3, 0.5),
                          fp.SubcatEntry("see", "PP", 1, 0.25)])
    with pytest.raises(LexiconError, match="disagrees"):
        fp.SubcatLexicon([fp.SubcatEntry("see", "NP", 3, math.nan)])


def test_empty_file_is_valid_empty_lexicon():
    lex = fp.parse_lexicon("")
    assert len(lex) == 0
    assert lex.entries() == []


def test_per_lemma_relfreqs_sum_to_one():
    lex = fp.load_lexicon(fp.demo_path("demo.lexicon"))
    for lemma in {e.lemma for e in lex.entries()}:
        total = math.fsum(e.relfreq for e in lex.entries() if e.lemma == lemma)
        assert abs(total - 1.0) <= 1e-9


def test_save_load_round_trip(tmp_path):
    lex = fp.load_lexicon(fp.demo_path("demo.lexicon"))
    out = tmp_path / "l.lexicon"
    fp.save_lexicon(lex, out)
    again = fp.load_lexicon(out)
    assert [(e.lemma, e.frame, e.count) for e in again.entries()] == \
        [(e.lemma, e.frame, e.count) for e in lex.entries()]


class TestFrameLogprob:
    def test_add1_known_lemma(self):
        lex = fp.parse_lexicon("v\tNP\t3\t0.75\nv\tNONE\t1\t0.25\n")
        assert lex.frame_logprob("v", "NP") == pytest.approx(math.log(4 / 33))
        assert lex.frame_logprob("v", "NONE") == pytest.approx(math.log(2 / 33))

    def test_add1_unseen_frame(self):
        lex = fp.parse_lexicon("v\tNP\t3\t0.75\nv\tNONE\t1\t0.25\n")
        assert lex.frame_logprob("v", "PP") == pytest.approx(math.log(1 / 33))

    def test_unknown_lemma_uniform(self):
        lex = fp.parse_lexicon("v\tNP\t3\t0.75\nv\tNONE\t1\t0.25\n")
        assert lex.frame_logprob("zzz", "NP") == pytest.approx(math.log(1 / 29))
        assert lex.frame_logprob("zzz", "SCOMP") == \
            pytest.approx(math.log(1 / 29))

    def test_out_of_inventory_frame_rejected(self):
        lex = fp.parse_lexicon("")
        with pytest.raises(LexiconError):
            lex.frame_logprob("v", "NP_QQ")

    def test_smoothed_distribution_proper(self, acquired_lexicon):
        for lex in (acquired_lexicon,
                    fp.load_lexicon(fp.demo_path("demo.lexicon"))):
            for lemma in {e.lemma for e in lex.entries()}:
                total = math.fsum(math.exp(lex.frame_logprob(lemma, frame))
                                  for frame in DEFAULT_FRAME_INVENTORY)
                assert abs(total - 1.0) <= 1e-9

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_monotone_in_count(self, a, b, c):
        def lex_with(np_count):
            total = np_count + b + c
            if total == 0:
                return fp.SubcatLexicon([])
            rows = [fp.SubcatEntry("v", frame, count, count / total)
                    for frame, count in (("NP", np_count), ("PP", b),
                                         ("NONE", c)) if count]
            return fp.SubcatLexicon(rows)

        low = lex_with(a)
        high = lex_with(a + 1)
        assert high.frame_logprob("v", "NP") >= low.frame_logprob("v", "NP")


class TestCollapse:
    def test_prepositional_classes_sum(self):
        fine = [("v", "pp_from", 0.2), ("v", "pp_about", 0.2),
                ("v", "np_plain", 0.6)]
        mapping = {"pp_from": "PP", "pp_about": "PP", "np_plain": "NP"}
        lex = fp.collapse_classes(fine, mapping)
        [np, pp] = lex.entries()
        assert (np.frame, pp.frame) == ("NP", "PP")
        assert pp.relfreq == pytest.approx(0.4)
        assert np.relfreq == pytest.approx(0.6)

    def test_identity_mapping_is_identity(self):
        fine = [("v", "NP", 0.75), ("v", "NONE", 0.25), ("w", "PP", 1.0)]
        mapping = {"NP": "NP", "NONE": "NONE", "PP": "PP"}
        lex = fp.collapse_classes(fine, mapping)
        assert [(e.lemma, e.frame, e.relfreq) for e in lex.entries()] == \
            [("v", "NONE", 0.25), ("v", "NP", 0.75), ("w", "PP", 1.0)]

    def test_relfreq_is_normalised_and_round_trips(self, tmp_path):
        lex = fp.collapse_classes([("give", "c1", 0.5), ("give", "c2", 0.3)],
                                  {"c1": "NP", "c2": "NP_PP"})
        assert [(e.frame, e.count) for e in lex.entries()] == \
            [("NP", 0.5), ("NP_PP", 0.3)]
        assert [e.relfreq for e in lex.entries()] == \
            pytest.approx([0.625, 0.375])
        path = tmp_path / "collapsed.lexicon"
        fp.save_lexicon(lex, path)
        again = fp.load_lexicon(path)
        assert [(e.lemma, e.frame, e.count) for e in again.entries()] == \
            [("give", "NP", 0.5), ("give", "NP_PP", 0.3)]
        assert [e.relfreq for e in again.entries()] == \
            pytest.approx([0.625, 0.375])

    def test_lemma_without_mass_left_out(self, tmp_path):
        lex = fp.collapse_classes([("v", "c1", 0.0), ("w", "c1", 1.0)],
                                  {"c1": "NP"})
        assert [(e.lemma, e.frame, e.relfreq) for e in lex.entries()] == \
            [("w", "NP", 1.0)]
        assert lex.frame_logprob("v", "NP") == math.log(1 / 29)
        path = tmp_path / "collapsed.lexicon"
        fp.save_lexicon(lex, path)
        assert len(fp.load_lexicon(path)) == 1

    def test_unmapped_class_rejected(self):
        with pytest.raises(LexiconError, match="no mapping"):
            fp.collapse_classes([("v", "mystery", 1.0)], {})

    @pytest.mark.parametrize("prob", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_probability_rejected(self, prob):
        # a NaN mass would reach frame_logprob and poison ranking
        with pytest.raises(LexiconError, match="negative or not finite"):
            fp.collapse_classes([("see", "c1", prob), ("see", "c2", 0.5)],
                                {"c1": "NP", "c2": "NP_PP"})

    def test_mass_preserved_exactly_dyadic(self):
        # dyadic probabilities sum exactly in floating point
        fine = [("v", f"c{i}", 1 / 16) for i in range(16)]
        mapping = {f"c{i}": ("NP" if i % 2 else "PP") for i in range(16)}
        lex = fp.collapse_classes(fine, mapping)
        assert math.fsum(e.relfreq for e in lex.entries()) == 1.0
        assert [(e.frame, e.relfreq) for e in lex.entries()] == \
            [("NP", 0.5), ("PP", 0.5)]

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(["u", "v"]),
                              st.sampled_from(["f1", "f2", "f3", "f4"]),
                              st.fractions(0, 1)),
                    min_size=1, max_size=12))
    def test_mass_preserved_random(self, rows):
        fine = [(lemma, fid, float(prob)) for lemma, fid, prob in rows]
        mapping = {"f1": "NP", "f2": "NP", "f3": "PP", "f4": "NONE"}
        lex = fp.collapse_classes(fine, mapping)
        for lemma in {r[0] for r in rows}:
            before = math.fsum(p for lem, _, p in fine if lem == lemma)
            after = math.fsum(e.count for e in lex.entries()
                              if e.lemma == lemma)
            assert abs(after - before) <= 1e-12

    def test_class_map_file(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("c1\tNP\nc2\tPP\n")
        assert fp.load_class_map(path) == {"c1": "NP", "c2": "PP"}
