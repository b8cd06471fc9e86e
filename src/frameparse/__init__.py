"""frameparse: probabilistic GLR parsing with verb-frame reranking and
bracket/grammatical-relation evaluation.

The toolkit parses PoS-tag sequences with a generalized-LR parser over a
head-annotated phrase-structure grammar, ranks the competing analyses
with a trained LR action model, optionally reranks them with acquired
verb subcategorisation-frame frequencies, and scores output against gold
annotations with unlabelled bracketing metrics and hierarchy-aware
grammatical-relation metrics.
"""

from .frames import DEFAULT_FRAME_INVENTORY
from .grammar import (ADJUNCT, ARGUMENT, Grammar, GrammarError, GRTemplate,
                      Rule, SlotRef, load_grammar, normalize_kleene,
                      parse_grammar, render_grammar)
from .lrtable import LRTable, build_table
from .glr import Forest, ForestNode, ParseError, glr_parse
from .treebank import (Tree, TreebankError, UnderivableTreeError,
                       load_treebank, read_treebank, write_treebank)
from .actions import (ActionModel, Derivation, RankedAnalysis, load_model,
                      save_model, train_actions, tree_actions, unpack_n_best)
from .lexicon import (LexiconError, SubcatEntry, SubcatLexicon,
                      collapse_classes, load_class_map, load_lexicon,
                      parse_lexicon, save_lexicon)
from .preprocess import (Lemmatizer, Token, Wordlist, load_lemma_exceptions,
                         load_wordlist, parse_wordlist, tag_tokens, tokenize)
from .rerank import FrameInstance, rank_analyses, verb_frames
from .acquire import ObservationStore, hypothesize_entries, observe_corpus
from .grs import (GR, GRError, RELATION_PARENTS, RELATION_SLOTS, gr_match,
                  gr_scores, parse_gr, read_gr_file, relation_histogram,
                  render_gr_file)
from .evaluation import (BracketReport, EvaluationError, GRReport,
                         TTestResult, aggregate_brackets, aggregate_grs,
                         bracket_scores, extract_brackets, extract_grs,
                         paired_t_test)
from .pipeline import ParserPipeline, SentenceResult
from .demofiles import demo_path

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
