"""Command-line interface.

Commands: ``build-table``, ``train``, ``parse``, ``acquire``,
``eval-bracket``, ``eval-gr``, ``compare``.  Any input file argument
accepts ``@demo/<name>`` as shorthand for a shipped demo file; output
paths are taken as given.  Reports are byte-identical for identical
inputs; sentences are processed and printed in input order.

Exit status: 0 on success (warnings allowed), 1 on evaluation/runtime
failures such as gold misalignment, 2 on configuration errors such as
a missing or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .actions import load_model, save_model, train_actions
from .acquire import hypothesize_entries, observe_corpus
from .demofiles import demo_path
from .evaluation import (EvaluationError, aggregate_brackets, aggregate_grs,
                         bracket_scores, extract_grs, paired_t_test)
from .grammar import Grammar, load_grammar, normalize_kleene
from .grs import read_gr_file
from .lexicon import load_lexicon, save_lexicon
from .lrtable import build_table, render_action
from .pipeline import UNKNOWN_WORD_TAGS, ParserPipeline, check_tags
from .preprocess import Lemmatizer, load_lemma_exceptions, load_wordlist
from .treebank import load_treebank


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve(value: str) -> Path:
    if value.startswith("@demo/"):
        return demo_path(value[len("@demo/"):])
    return Path(value)


def _load(loader, value: str | None, *args):
    """``loader(path, *args)`` for an input file argument, None if it is
    not given; a missing or malformed file exits 2 naming the path."""
    if value is None:
        return None
    path = _resolve(value)
    if not path.exists():
        raise CliError(f"file not found: {path}", code=2)
    try:
        return loader(path, *args)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", code=2) from exc


def _load_grammar(value: str) -> Grammar:
    """The grammar file ``value`` with its Kleene markers expanded; a
    fault found by either step exits 2 naming the path."""
    return _load(lambda path: normalize_kleene(load_grammar(path)), value)


def _check_output(value: str) -> None:
    """Exit 2 as ``error: <path>: <reason>`` unless ``value`` can be
    written; run before any work, leaving an existing file as it is."""
    path = Path(value)
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}", code=2) from exc
    if not existed:
        path.unlink()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fmt(value: float) -> str:
    return "%.4f" % value


def _check_tags(value: str, grammar: Grammar, tags, kind: str) -> None:
    """Exit 2 naming the file ``value`` if it asks for a tag that
    ``grammar`` lacks."""
    try:
        check_tags(grammar, tags, kind)
    except ValueError as exc:
        raise CliError(f"{_resolve(value)}: {exc}", code=2) from exc


def _load_pipeline(args) -> ParserPipeline:
    grammar = _load_grammar(args.grammar)
    _check_tags(args.grammar, grammar, UNKNOWN_WORD_TAGS, "unknown-word")
    table = build_table(grammar)
    model = _load(load_model, args.model, table)
    wordlist = _load(load_wordlist, args.wordlist)
    if wordlist is not None:
        _check_tags(args.wordlist, grammar, wordlist.all_tags(), "wordlist")
    exceptions = _load(load_lemma_exceptions, args.lemma_exceptions)
    lexicon = _load(load_lexicon, getattr(args, "lexicon", None))
    return ParserPipeline(grammar, table=table, model=model, wordlist=wordlist,
                          lemmatizer=Lemmatizer(exceptions or {}),
                          lexicon=lexicon)


def _read_sentences(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip()]


def _read_grs(path: Path):
    return read_gr_file(path.read_text(encoding="utf-8"))


def _load_gold(loader, value: str | None, sentences, source: str, unit: str):
    """Gold annotations with one ``unit`` per sentence (exit 1 if not)."""
    gold = _load(loader, value)
    if gold is not None and len(gold) != len(sentences):
        raise CliError(f"gold {source} has {len(gold)} {unit} for "
                       f"{len(sentences)} sentences", code=1)
    return gold


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite number >= 0")
    return value


def cmd_build_table(args) -> int:
    grammar = _load_grammar(args.grammar)
    table = build_table(grammar)
    conflicts = table.conflicts()
    lines = [
        "states\t%d" % table.n_states,
        "rules\t%d" % len(grammar.rules),
        "conflict_classes\t%d" % len(conflicts),
    ]
    for state, lookahead, acts in conflicts:
        lines.append("conflict\t%d\t%s\t%s" % (
            state, lookahead, " ".join(render_action(a) for a in acts)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_train(args) -> int:
    grammar = _load_grammar(args.grammar)
    table = build_table(grammar)
    trees = _load(load_treebank, args.treebank)
    model, skipped = train_actions(trees, table)
    for index, reason in skipped:
        print(f"warning: skipping underivable tree {index}: {reason}",
              file=sys.stderr)
    path = Path(args.model)
    save_model(model, path)
    print("trained\t%d" % (len(trees) - len(skipped)))
    print("skipped\t%d" % len(skipped))
    print("model\t%s" % path)
    return 0


def cmd_parse(args) -> int:
    if bool(args.sentences) == bool(args.corpus):
        raise CliError("give sentences as arguments or --corpus, not both",
                       code=2)
    pipeline = _load_pipeline(args)
    sentences = args.sentences or _load(_read_sentences, args.corpus)
    payload = []
    text_lines = []
    for sentence in sentences:
        result = pipeline.analyze(sentence, n=args.n)
        surfaces = [t.surface for t in result.tokens]
        tagged = ["%s/%s" % (t.surface, t.tag) for t in result.tokens]
        records = []
        for rank, analysis in enumerate(result.analyses, 1):
            grs = extract_grs(analysis.derivation, pipeline.grammar,
                              result.tokens)
            records.append({
                "rank": rank,
                "structural": analysis.structural_logprob,
                "lexical": analysis.lexical_logprob,
                "total": analysis.total_score,
                "tree": analysis.derivation.tree.render(surfaces),
                "grs": sorted(gr.render() for gr in grs),
            })
        if not records:
            print(f"warning: out of coverage: {sentence}", file=sys.stderr)
        payload.append({"sentence": sentence, "tokens": tagged,
                        "analyses": records})
        if text_lines:
            text_lines.append("")
        text_lines.append("sentence\t%s" % sentence)
        text_lines.append("tokens\t%s" % " ".join(tagged))
        if not records:
            text_lines.append("coverage\tnone")
        for record in records:
            text_lines.append("analysis\t%d" % record["rank"])
            text_lines.append("structural\t%.6f" % record["structural"])
            text_lines.append("lexical\t%.6f" % record["lexical"])
            text_lines.append("total\t%.6f" % record["total"])
            text_lines.append("tree\t%s" % record["tree"])
            for gr in record["grs"]:
                text_lines.append("gr\t%s" % gr)
    _emit_report(payload, text_lines, args)
    return 0


def cmd_acquire(args) -> int:
    pipeline = _load_pipeline(args)
    sentences = _load(_read_sentences, args.corpus)
    store = observe_corpus(sentences, pipeline, cap=args.cap)
    lexicon = hypothesize_entries(store, min_count=args.min_count,
                                  min_relfreq=args.min_relfreq)
    save_lexicon(lexicon, Path(args.out))
    print("sentences\t%d" % len(sentences))
    print("parsed\t%d" % store.parsed_sentences)
    print("skipped\t%d" % store.skipped_sentences)
    print("verbs\t%d" % len(store.frames))
    print("entries\t%d" % len(lexicon))
    return 0


def _evaluate(args, modes):
    """Per ``lexicalized`` value in ``modes``, the GR report and the
    bracket report of the corpus's top analyses, each None unless the
    command takes its gold (``--gold-gr``, ``--treebank``); each sentence
    is parsed once and its forest ranked once per mode."""
    pipeline = _load_pipeline(args)
    sentences = _load(_read_sentences, args.corpus)
    gold_sets = _load_gold(_read_grs, getattr(args, "gold_gr", None),
                           sentences, "GR file", "blocks")
    gold_trees = _load_gold(load_treebank, getattr(args, "treebank", None),
                            sentences, "treebank", "trees")
    tops = [[] for _ in modes]  # per mode, (top derivation or None, tokens)
    for index, sentence in enumerate(sentences):
        tokens = pipeline.tag(sentence)
        forest = pipeline.parse_tags([token.tag for token in tokens])
        if forest.root is None:
            print(f"warning: out of coverage: sentence {index}", file=sys.stderr)
        for top, lexicalized in zip(tops, modes):
            analyses = pipeline.rank(forest, tokens, 1, lexicalized)
            top.append((analyses[0].derivation if analyses else None, tokens))
    reports = []
    for top in tops:
        gr_report = bracket_report = None
        if gold_sets is not None:
            gr_report = aggregate_grs([
                (set() if derivation is None else
                 extract_grs(derivation, pipeline.grammar, tokens), gold)
                for (derivation, tokens), gold in zip(top, gold_sets)])
        if gold_trees is not None:
            per_sentence = []
            for index, ((derivation, _), gold) in enumerate(
                    zip(top, gold_trees)):
                test = None if derivation is None else derivation.tree
                try:
                    per_sentence.append(bracket_scores(test, gold))
                except EvaluationError as exc:
                    raise CliError(f"sentence {index}: {exc}", code=1) from exc
            bracket_report = aggregate_brackets(per_sentence)
        reports.append((gr_report, bracket_report))
    return reports


def cmd_eval_bracket(args) -> int:
    [(_, report)] = _evaluate(args, (True,))
    fields = report.fields()
    _emit_report(fields, _field_lines(fields), args)
    return 0


def cmd_eval_gr(args) -> int:
    [(report, _)] = _evaluate(args, (True,))
    fields = report.fields()
    payload = dict(fields)
    payload["relations"] = _relation_rows(report)
    lines = _field_lines(fields) + ["relation\treturned\tcorrect"]
    for row in payload["relations"]:
        lines.append("%s\t%d\t%d" % (row["relation"], row["returned"],
                                     row["correct"]))
    _emit_report(payload, lines, args)
    return 0


def _relation_rows(report):
    names = sorted(set(report.returned_by_relation) | set(report.gold_by_relation))
    return [{"relation": name,
             "returned": report.returned_by_relation.get(name, 0),
             "correct": report.gold_by_relation.get(name, 0)}
            for name in names]


def _field_lines(fields: dict) -> list[str]:
    return ["%s\t%s" % (k, _fmt(v) if isinstance(v, float) else v)
            for k, v in fields.items()]


def _emit_report(payload, lines: list[str], args) -> None:
    """The report as JSON of ``payload`` or as the text ``lines``."""
    if args.format == "machine-readable":
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
              + "\n", args.out)
    else:
        _emit("".join(line + "\n" for line in lines), args.out)


def cmd_compare(args) -> int:
    (base_report, base_brackets), (lex_report, lex_brackets) = _evaluate(
        args, (False, True))
    recall_test = paired_t_test(lex_report.per_sentence_recall,
                                base_report.per_sentence_recall)
    precision_test = paired_t_test(lex_report.per_sentence_precision,
                                   base_report.per_sentence_precision)
    stats = {"recall_t": recall_test.t, "recall_df": recall_test.df,
             "recall_p": recall_test.p_two_sided,
             "precision_t": precision_test.t, "precision_df": precision_test.df,
             "precision_p": precision_test.p_two_sided}

    payload: dict = {
        "sentences": base_report.sentences,
        "gr": {
            "baseline": base_report.fields(),
            "lexicalized": lex_report.fields(),
            "relations": {
                "baseline": _relation_rows(base_report),
                "lexicalized": _relation_rows(lex_report),
            },
        },
    }
    # JSON has no inf or nan: a non-finite statistic is written as the
    # text report prints it
    payload.update((key, value if math.isfinite(value) else "%.6g" % value)
                   for key, value in stats.items())
    lines = ["sentences\t%d" % base_report.sentences,
             "model\trecall\tprecision\tmean_returned"]
    for name, report in (("baseline", base_report), ("lexicalized", lex_report)):
        lines.append("%s\t%s\t%s\t%s" % (name, _fmt(report.recall),
                                         _fmt(report.precision),
                                         _fmt(report.mean_returned)))
    if base_brackets is not None:
        bracket_reports = {"baseline": base_brackets,
                           "lexicalized": lex_brackets}
        payload["bracket"] = {name: report.fields()
                              for name, report in bracket_reports.items()}
        lines.append("model\trecall\tprecision\tmean_crossings\tzero_crossings_pct")
        for name, report in bracket_reports.items():
            lines.append("%s\t%s\t%s\t%s\t%s" % (
                name, _fmt(report.recall), _fmt(report.precision),
                _fmt(report.mean_crossings), _fmt(report.zero_crossings_pct)))
    lines.append("relation\tbaseline\tlexicalized\tcorrect")
    names = sorted(set(base_report.returned_by_relation)
                   | set(lex_report.returned_by_relation)
                   | set(base_report.gold_by_relation))
    for name in names:
        lines.append("%s\t%d\t%d\t%d" % (
            name, base_report.returned_by_relation.get(name, 0),
            lex_report.returned_by_relation.get(name, 0),
            base_report.gold_by_relation.get(name, 0)))
    for key, value in stats.items():
        lines.append("%s\t%s" % (
            key, value if isinstance(value, int) else "%.6g" % value))
    _emit_report(payload, lines, args)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameparse",
        description="GLR parsing with verb-frame reranking and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline(p):  # the files _load_pipeline reads
        p.add_argument("--grammar", required=True, help="grammar file")
        p.add_argument("--model", required=True, help="action model file")
        p.add_argument("--wordlist", help="surface-to-tag wordlist")
        p.add_argument("--lemma-exceptions", dest="lemma_exceptions",
                       help="lemma exception table")

    def add_report(p):
        add_pipeline(p)
        p.add_argument("--format", choices=["text", "machine-readable"],
                       default="text")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("build-table", help="build the LALR table and list conflicts")
    p.add_argument("--grammar", required=True, help="grammar file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_build_table)

    p = sub.add_parser("train", help="train an action model from a treebank")
    p.add_argument("--grammar", required=True, help="grammar file")
    p.add_argument("--treebank", required=True, help="gold training trees")
    p.add_argument("--model", required=True, help="write the model here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse sentences and print ranked analyses")
    add_report(p)
    p.add_argument("sentences", nargs="*", help="sentences to parse")
    p.add_argument("--corpus", help="file of sentences, one per line")
    p.add_argument("--lexicon", help="frame lexicon (enables lexicalized mode)")
    p.add_argument("--n", type=_positive_int, default=1,
                   help="analyses per sentence")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("acquire", help="acquire a frame lexicon from a corpus")
    add_pipeline(p)
    p.add_argument("--corpus", required=True, help="raw corpus, one sentence per line")
    p.add_argument("--out", required=True, help="write the lexicon here")
    p.add_argument("--cap", type=_nonneg_int, default=1000,
                   help="observations kept per verb")
    p.add_argument("--min-count", dest="min_count", type=_nonneg_int,
                   default=1)
    p.add_argument("--min-relfreq", dest="min_relfreq",
                   type=_nonneg_float, default=0.0)
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("eval-bracket", help="bracketing evaluation")
    add_report(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--treebank", required=True, help="gold trees")
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_eval_bracket)

    p = sub.add_parser("eval-gr", help="grammatical-relation evaluation")
    add_report(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold-gr", dest="gold_gr", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=cmd_eval_gr)

    p = sub.add_parser("compare",
                       help="baseline vs lexicalized evaluation with t-tests")
    add_report(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold-gr", dest="gold_gr", required=True)
    p.add_argument("--treebank", help="gold trees for bracket comparison")
    p.add_argument("--lexicon", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    output = args.model if args.command == "train" else getattr(args, "out", None)
    try:
        if output is not None:
            _check_output(output)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
