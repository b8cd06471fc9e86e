"""Phrase-structure grammars with head marking, an argument/adjunct
distinction, VSUBCAT features on verbal rules, and grammatical-relation
emission templates.

The backbone is context-free.  Rules whose mother label equals the head
daughter's label are adjunct rules (Chomsky-adjunction to a maximal
projection); every other rule is an argument rule.  A verbal argument
rule (lexical verb head) carries a VSUBCAT feature naming the complement
frame it consumes.

Grammars are immutable after loading and safe to share across concurrent
parser instances; loading itself is single-threaded.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .frames import FRAMES
from .grs import RELATION_SLOTS

ARGUMENT = "argument"
ADJUNCT = "adjunct"

# Symbols starting with "@" are reserved: Kleene expansion mints helper
# non-terminals under this prefix and evaluation excludes their brackets.
HELPER_PREFIX = "@"
END_MARKER = "@$"

_SYMBOL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_']*$")
_TEMPLATE_RE = re.compile(r"^([a-z_0-9]+)\s*\(\s*(.*?)\s*\)$")
# Kleene expansion makes two variants of a rule per '?' or '*' daughter,
# so a rule's variants grow as 2^k.  The demo grammar's rules have one
# variant each and the English test fixture's at most two; this limit
# admits twelve optional daughters in one rule, which expand in a few
# hundredths of a second, and refuses a longer list before expanding it.
MAX_KLEENE_VARIANTS = 4096


class GrammarError(ValueError):
    """Malformed grammar text or an inconsistent grammar."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SlotRef(NamedTuple):
    """One template slot: a daughter index (1-based), the node's own head
    word (``self``), the matrix subject (``control``), a quoted literal,
    or unspecified."""

    kind: str  # "daughter" | "self" | "control" | "literal" | "none"
    value: object = None

    def render(self) -> str:
        if self.kind == "daughter":
            return str(self.value)
        if self.kind == "literal":
            return '"%s"' % self.value
        if self.kind == "none":
            return "_"
        return self.kind


SLOT_NONE = SlotRef("none")


class GRTemplate(NamedTuple):
    relation: str
    type_slot: SlotRef
    head_slot: SlotRef
    dependent_slot: SlotRef
    initial_slot: SlotRef

    def render(self) -> str:
        return "gr: %s(%s, %s, %s, %s)" % (
            self.relation, self.type_slot.render(), self.head_slot.render(),
            self.dependent_slot.render(), self.initial_slot.render())


class _Value:
    """A record that compares and hashes by ``self._key()``, and equals
    only a record of its own class."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Rule(_Value):
    """One grammar rule.  Immutable by convention; rules compare and
    hash by every field but ``line``, the source line it was read from."""

    __slots__ = ("mother", "daughters", "head_index", "markers", "features",
                 "gr_templates", "rule_id", "line")

    def __init__(self, mother: str, daughters: tuple[str, ...],
                 head_index: int, markers: tuple[str, ...],
                 features: tuple[tuple[str, str], ...],
                 gr_templates: tuple[GRTemplate, ...], rule_id: int,
                 line: Optional[int]):
        self.mother = mother
        self.daughters = daughters
        self.head_index = head_index  # 0-based
        self.markers = markers  # per daughter: "", "?", "*" or "+"
        self.features = features  # the mother's
        self.gr_templates = gr_templates
        self.rule_id = rule_id
        self.line = line

    def _key(self) -> tuple:
        return (self.mother, self.daughters, self.head_index, self.markers,
                self.features, self.gr_templates, self.rule_id)

    @property
    def kind(self) -> str:
        return ADJUNCT if self.mother == self.daughters[self.head_index] else ARGUMENT

    def feature(self, name: str) -> Optional[str]:
        for key, value in self.features:
            if key == name:
                return value
        return None

    def has_repetition(self) -> bool:
        return any(self.markers)

    def render(self) -> str:
        parts = [symbol + marker + ("(head)" if i == self.head_index else "")
                 for i, (symbol, marker)
                 in enumerate(zip(self.daughters, self.markers))]
        text = "%s -> %s" % (self.mother, " ".join(parts))
        if self.features:
            text += " : " + ", ".join("%s=%s" % kv for kv in self.features)
        for tpl in self.gr_templates:
            text += " | " + tpl.render()
        return text


class Grammar(_Value):
    """Rules, start symbol, terminals and verb tags.  Immutable by
    convention; grammars compare and hash by those four fields.  The
    derived indexes below are computed once, on first use.

    A grammar is valid by construction, however it was made: each rule's
    id is its position, it has daughters, all declared, and no terminal
    heads it; its head index names a daughter; each daughter has one
    marker, ``""``, ``?``, ``*`` or ``+``, and the head has ``""``; its
    feature names are distinct, its VSUBCAT value is a frame, and its GR
    templates fill their relation's slots with kinds and daughters the
    slots take, each slot holding its kind's value; its symbols (but
    Kleene expansion's helpers), feature names and values and literals
    re-read from :func:`render_grammar`'s text as themselves, or the
    reader's message is raised; the verb tags are terminals; the start
    symbol has a rule; no two rules share a shape;
    every non-terminal derives a terminal string; and, once free of
    repetition markers, it has no derivation cycle.  The constructor
    raises :class:`GrammarError` otherwise.
    """

    def __init__(self, rules: tuple[Rule, ...], start_symbol: str,
                 terminals: frozenset[str], verb_tags: frozenset[str]):
        self.rules = rules
        self.start_symbol = start_symbol
        self.terminals = terminals
        self.verb_tags = verb_tags
        _validate(self)

    def _key(self) -> tuple:
        return (self.rules, self.start_symbol, self.terminals, self.verb_tags)

    @cached_property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(r.mother for r in self.rules)

    @cached_property
    def shape_index(self) -> dict[tuple[str, tuple[str, ...]], Rule]:
        return {(r.mother, r.daughters): r for r in self.rules}

    @cached_property
    def rules_by_lhs(self) -> dict[str, tuple[Rule, ...]]:
        grouped: dict[str, list[Rule]] = {}
        for r in self.rules:
            grouped.setdefault(r.mother, []).append(r)
        return {k: tuple(v) for k, v in grouped.items()}

    @cached_property
    def instance_frames(self) -> tuple[Optional[str], ...]:
        """By rule id, the frame of the verb instance an application of
        the rule makes, or ``None`` if it makes none.

        A verb instance is an argument rule whose head daughter is a
        terminal, and a verb tag when the grammar declares any, and which
        carries a VSUBCAT value: the frame it assigns to its verb.
        """
        frames = []
        for rule in self.rules:
            head = rule.daughters[rule.head_index]
            verbal = (rule.kind == ARGUMENT and head in self.terminals
                      and (not self.verb_tags or head in self.verb_tags))
            frames.append(rule.feature("VSUBCAT") if verbal else None)
        return tuple(frames)

    def has_repetition(self) -> bool:
        return any(r.has_repetition() for r in self.rules)

    def rule_by_shape(self, mother: str, daughters: Sequence[str]) -> Optional[Rule]:
        return self.shape_index.get((mother, tuple(daughters)))


def _check_symbol(name: str, line: Optional[int]) -> str:
    if not (isinstance(name, str) and _SYMBOL_RE.match(name)):
        raise GrammarError(f"invalid symbol {name!r}", line)
    return name


def _breaks_field(text: str) -> bool:
    """Whether ``text`` holds what ends a field of a grammar line: a line
    break, a comment, a section or a list item."""
    return "".join(text.splitlines()) != text or any(c in text for c in "#|,")


def _parse_slot(text: str, line: int) -> SlotRef:
    if text == "_":
        return SLOT_NONE
    if text in ("self", "control"):
        return SlotRef(text)
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return SlotRef("literal", text[1:-1])
    if text.isdigit():
        return SlotRef("daughter", int(text))
    raise GrammarError(f"cannot parse template slot {text!r}", line)


def _parse_template(section: str, line: int) -> GRTemplate:
    body = section[len("gr:"):].strip()
    m = _TEMPLATE_RE.match(body)
    if not m:
        raise GrammarError(f"cannot parse GR template {body!r}", line)
    args = [a for a in (p.strip() for p in m.group(2).split(",")) if a != ""]
    if len(args) not in (3, 4):
        raise GrammarError(
            f"GR template takes type, head, dependent[, initial]: {body!r}", line)
    # an initial slot left out is "_"
    slots = [_parse_slot(arg, line) for arg in args] + [SLOT_NONE]
    return GRTemplate(m.group(1), *slots[:4])


_DAUGHTER_RE = re.compile(r"^(?P<name>[^()*+?\s]+)(?P<rep>[*+?])?(?P<head>\(head\))?$")


def _parse_rule_line(line_text: str, line: int, rule_id: int) -> Rule:
    sections = [s.strip() for s in line_text.split("|")]
    main = sections[0]
    if "->" not in main:
        raise GrammarError(f"expected 'Mother -> daughters': {main!r}", line)
    lhs_text, rhs_text = main.split("->", 1)
    mother = _check_symbol(lhs_text.strip(), line)
    if ":" in rhs_text:
        daughters_text, feat_text = rhs_text.split(":", 1)
    else:
        daughters_text, feat_text = rhs_text, ""
    tokens = daughters_text.split()
    if not tokens:
        raise GrammarError("rule has no daughters (empty rules are not allowed)", line)
    daughters = []
    markers = []
    head_index = None
    for i, token in enumerate(tokens):
        m = _DAUGHTER_RE.match(token)
        if not m:
            raise GrammarError(f"cannot parse daughter {token!r}", line)
        daughters.append(_check_symbol(m.group("name"), line))
        markers.append(m.group("rep") or "")
        if m.group("head"):
            if head_index is not None:
                raise GrammarError("more than one daughter marked (head)", line)
            head_index = i
    if head_index is None:
        if len(daughters) == 1:
            head_index = 0
        else:
            raise GrammarError("no daughter marked (head)", line)
    features = []
    if feat_text.strip():
        for part in feat_text.split(","):
            key, _, value = (p.strip() for p in part.partition("="))
            if not key or not value:
                raise GrammarError(f"cannot parse feature {part.strip()!r}", line)
            features.append((key, value))
    templates = []
    for section in sections[1:]:
        if not section.startswith("gr:"):
            raise GrammarError(f"expected 'gr: ...' after '|': {section!r}", line)
        templates.append(_parse_template(section, line))
    return Rule(mother, tuple(daughters), head_index, tuple(markers), tuple(features),
                tuple(templates), rule_id, line)


def parse_grammar(text: str) -> Grammar:
    """Parse a grammar file.

    The format is line-oriented UTF-8 with ``#`` comments:

    .. code-block:: text

        terminals: det n v prep to
        verbs: v
        start: S
        S  -> NP VP(head)                       | gr: ncsubj(_, 2, 1, _)
        VP -> v(head) NP : VSUBCAT=NP           | gr: dobj(_, self, 2, _)
        NP -> det n(head)
        NP -> NP(head) PP
        NP -> pn+ pn(head)

    Each declaration may appear once, and ``verbs:`` names terminals.
    Every non-terminal must derive some terminal string, counting a
    daughter marked ``?`` or ``*`` as left out; the first that derives
    none is an error, located at its first rule.
    Kleene markers (``?``, ``*``, ``+``) are preserved; run
    :func:`normalize_kleene` before building parse tables.
    """
    terminals: Optional[list[str]] = None
    start: Optional[str] = None
    verb_tags: list[str] = []
    rules: list[Rule] = []
    declared: dict[str, int] = {}  # declaration keyword -> its line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, values = line.partition(":")
        if keyword in ("terminals", "start", "verbs"):
            if keyword in declared:
                raise GrammarError(f"duplicate '{keyword}:' declaration "
                                   f"(first on line {declared[keyword]})", lineno)
            declared[keyword] = lineno
        if keyword == "terminals":
            terminals = [_check_symbol(s, lineno) for s in values.split()]
            if not terminals:
                raise GrammarError("empty terminals declaration", lineno)
        elif keyword == "start":
            start = _check_symbol(values.strip(), lineno)
        elif keyword == "verbs":
            verb_tags = [_check_symbol(s, lineno) for s in values.split()]
        elif "->" in line:
            rules.append(_parse_rule_line(line, lineno, len(rules)))
        else:
            raise GrammarError(f"unrecognised line: {line!r}", lineno)
    if terminals is None:
        raise GrammarError("missing 'terminals:' declaration")
    if start is None:
        raise GrammarError("missing 'start:' declaration")
    for tag in verb_tags:
        if tag not in terminals:
            raise GrammarError(f"verb tag {tag!r} is not a terminal",
                               declared["verbs"])
    return Grammar(tuple(rules), start, frozenset(terminals),
                   frozenset(verb_tags))


def load_grammar(path) -> Grammar:
    with open(path, encoding="utf-8") as handle:
        return parse_grammar(handle.read())


def render_grammar(grammar: Grammar) -> str:
    """Render back to grammar-file text; re-parsing yields an equal grammar."""
    lines = ["terminals: " + " ".join(sorted(grammar.terminals))]
    if grammar.verb_tags:
        lines.append("verbs: " + " ".join(sorted(grammar.verb_tags)))
    lines.append("start: " + grammar.start_symbol)
    lines.extend(rule.render() for rule in grammar.rules)
    return "\n".join(lines) + "\n"


def _validate(grammar: Grammar) -> None:
    if not grammar.rules:
        raise GrammarError("grammar has no rules")
    if not grammar.terminals:
        raise GrammarError("grammar declares no terminals")
    # With the mothers, checked below, these are every symbol: each
    # daughter, the start symbol and each verb tag must be one of them.
    # Sorted by str, so that a symbol of another type meets its check
    # instead of failing the sort.
    for name in sorted(grammar.terminals, key=str):
        _check_symbol(name, None)
    for tag in sorted(grammar.verb_tags, key=str):
        if tag not in grammar.terminals:
            raise GrammarError(f"verb tag {tag!r} is not a terminal")
    for position, rule in enumerate(grammar.rules):
        if rule.rule_id != position:
            raise GrammarError(f"rule {rule.rule_id} of {rule.mother!r} is at "
                               f"position {position} (a rule's id must be "
                               f"its position)", rule.line)
        if not rule.daughters:
            raise GrammarError(f"rule {rule.rule_id} of {rule.mother!r} has no "
                               f"daughters (empty rules are not allowed)",
                               rule.line)
        if not 0 <= rule.head_index < len(rule.daughters):
            raise GrammarError(f"rule {rule.rule_id} of {rule.mother!r} has head "
                               f"index {rule.head_index}, which names no daughter",
                               rule.line)
        if (len(rule.markers) != len(rule.daughters)
                or not set(rule.markers) <= {"", "?", "*", "+"}):
            raise GrammarError(f"rule {rule.rule_id} of {rule.mother!r} has markers "
                               f"{rule.markers!r}, not one of '', '?', '*' or '+' "
                               f"per daughter", rule.line)
        if not rule.mother.startswith(HELPER_PREFIX):  # Kleene expansion's
            _check_symbol(rule.mother, rule.line)
        if rule.mother in grammar.terminals:
            raise GrammarError(f"terminal {rule.mother!r} on a left-hand side",
                               rule.line)
        for name in rule.daughters:
            if name not in grammar.terminals and name not in grammar.nonterminals:
                raise GrammarError(f"undeclared symbol {name!r}", rule.line)
        if rule.markers[rule.head_index]:
            raise GrammarError("the head daughter cannot carry a repetition marker",
                               rule.line)
        for index, (key, value) in enumerate(rule.features):
            # The reader splits the features at "," and each at its first
            # "=", and strips both sides.
            part = f"{key}={value}"
            if (not (isinstance(key, str) and isinstance(value, str))
                    or not key or not value or key != key.strip()
                    or value != value.strip() or "=" in key
                    or _breaks_field(part)):
                raise GrammarError(f"cannot parse feature {part!r}", rule.line)
            if any(key == seen for seen, _ in rule.features[:index]):
                raise GrammarError(f"duplicate feature {key!r}", rule.line)
        vsubcat = rule.feature("VSUBCAT")
        if vsubcat is not None and vsubcat not in FRAMES:
            raise GrammarError(f"unknown VSUBCAT value {vsubcat!r}", rule.line)
        _check_templates(rule)
    if grammar.start_symbol not in grammar.nonterminals:
        raise GrammarError(f"start symbol {grammar.start_symbol!r} has no rule")
    seen_shapes: set[tuple] = set()
    for rule in grammar.rules:
        shape = (rule.mother, rule.daughters, rule.markers)
        if shape in seen_shapes:
            raise GrammarError(
                f"duplicate rule {rule.mother} -> {' '.join(rule.daughters)}",
                rule.line)
        seen_shapes.add(shape)
    # Kleene expansion checks a grammar with markers once it builds the
    # marker-free one.
    if not grammar.has_repetition():
        _check_cycle_free(grammar)
    _check_productive(grammar)


# Per template slot, in GRTemplate order: its name in RELATION_SLOTS, the
# slot kinds it may hold, and the message when it holds another.
_SLOT_KINDS = (
    ("type", {"none", "daughter", "literal"},
     "template type slot must be '_', a daughter index or a quoted literal"),
    ("head", {"daughter", "self"},
     "template head slot must be a daughter index or 'self'"),
    ("dep", {"daughter", "control"},
     "template dependent slot must be a daughter index or 'control'"),
    ("initial", {"none", "literal"},
     "template initial slot must be '_' or a quoted literal"),
)
# The type of the value a literal or daughter slot holds, and its name;
# the other kinds hold None.
_SLOT_VALUES = {"literal": (str, "a string"), "daughter": (int, "an int")}


def _check_templates(rule: Rule) -> None:
    for relation, *slots in rule.gr_templates:
        if relation not in RELATION_SLOTS:
            raise GrammarError(f"unknown GR relation {relation!r}", rule.line)
        for (name, kinds, message), slot in zip(_SLOT_KINDS, slots):
            if slot.kind not in kinds:
                raise GrammarError("'control' is only valid in the dependent slot"
                                   if slot.kind == "control" else message, rule.line)
            value_type, value_name = _SLOT_VALUES.get(slot.kind,
                                                      (type(None), "no value"))
            if not isinstance(slot.value, value_type) or isinstance(slot.value, bool):
                raise GrammarError(f"template {slot.kind} slot takes {value_name}, "
                                   f"not {slot.value!r}", rule.line)
            if slot.kind == "literal" and _breaks_field(slot.value):
                raise GrammarError(f"cannot parse template slot {slot.render()!r}",
                                   rule.line)
            if slot.kind == "daughter" and not 1 <= slot.value <= len(rule.daughters):
                raise GrammarError(f"template daughter index {slot.value} out of range",
                                   rule.line)
            if slot.kind != "none" and name not in RELATION_SLOTS[relation]:
                raise GrammarError(f"GR relation {relation!r} has no {name} slot",
                                   rule.line)


def _check_productive(grammar: Grammar) -> None:
    # A non-terminal derives a terminal string once one of its rules has
    # only such daughters, not counting those marked ``?`` or ``*``.  Each
    # rule counts the daughters it still waits for, so a long chain of
    # rules is settled in one pass over them.
    waiting: list[set[str]] = []
    users: dict[str, list[int]] = {}
    ready = []
    for index, rule in enumerate(grammar.rules):
        needed = {symbol for symbol, marker in zip(rule.daughters, rule.markers)
                  if marker in ("", "+") and symbol not in grammar.terminals}
        waiting.append(needed)
        for symbol in needed:
            users.setdefault(symbol, []).append(index)
        if not needed:
            ready.append(rule.mother)
    productive: set[str] = set()
    while ready:
        symbol = ready.pop()
        if symbol not in productive:
            productive.add(symbol)
            for index in users.get(symbol, ()):
                waiting[index].discard(symbol)
                if not waiting[index]:
                    ready.append(grammar.rules[index].mother)
    for rule in grammar.rules:
        if rule.mother not in productive:
            raise GrammarError(f"non-terminal {rule.mother!r} derives no "
                               f"terminal string", rule.line)


def _check_cycle_free(grammar: Grammar) -> None:
    # Without empty rules, A =>+ A is only possible through unit-rule chains.
    edges: dict[str, set[str]] = {}
    for rule in grammar.rules:
        if len(rule.daughters) == 1:
            child = rule.daughters[0]
            if child in grammar.nonterminals:
                edges.setdefault(rule.mother, set()).add(child)
    # Depth-first in sorted order over an explicit stack, since unit
    # chains can be as long as the grammar: ``trail`` is the path walked
    # so far (state 1), ``pending`` each of its symbols' children left to
    # try, and a finished symbol has state 2.
    state: dict[str, int] = {}
    for label in sorted(edges):
        if label in state:
            continue
        state[label] = 1
        trail = [label]
        pending = [iter(sorted(edges[label]))]
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == 1:
                    cycle = " -> ".join(trail + [nxt])
                    raise GrammarError(f"grammar has a derivation cycle: {cycle}")
                if nxt not in state:
                    state[nxt] = 1
                    trail.append(nxt)
                    pending.append(iter(sorted(edges.get(nxt, ()))))
                    break
            else:
                pending.pop()
                state[trail.pop()] = 2


def _remap_template(tpl: GRTemplate, index_map: dict[int, int]) -> Optional[GRTemplate]:
    slots = []
    for slot in tpl[1:]:
        if slot.kind == "daughter":
            if slot.value not in index_map:
                return None  # references an omitted optional daughter
            slot = SlotRef("daughter", index_map[slot.value])
        slots.append(slot)
    return GRTemplate(tpl.relation, *slots)


def normalize_kleene(grammar: Grammar) -> Grammar:
    """Expand repetition markers into plain rules.

    ``X -> a B* c`` becomes ``X -> a c`` and ``X -> a @rep_B c`` with the
    right-recursive helper ``@rep_B -> B | B @rep_B``; ``+`` keeps only
    the helper variant and ``?`` expands into a rule pair.  No empty
    rules are introduced, expansion variants that collapse to the unit
    cycle ``X -> X`` are dropped, and the string language is preserved.
    Normalising an already-normalised grammar returns it unchanged.
    """
    if not grammar.has_repetition():
        return grammar
    helpers: dict[str, str] = {}  # repeated symbol -> its helper
    new_rules: list[Rule] = []
    seen: dict[tuple, Rule] = {}

    def helper_for(symbol: str) -> str:
        return helpers.setdefault(symbol, f"{HELPER_PREFIX}rep_{symbol}")

    def emit(mother: str, daughters: tuple[str, ...], head_index: int,
             features: tuple = (), templates: tuple = (),
             line: Optional[int] = None) -> None:
        shape = (mother, features, daughters, head_index)
        prior = seen.get(shape)
        if prior is not None:
            if prior.gr_templates != templates:
                raise GrammarError(
                    f"Kleene expansion produced conflicting duplicates of "
                    f"{mother} -> {' '.join(daughters)}", line)
            return
        rule = Rule(mother, daughters, head_index, ("",) * len(daughters), features,
                    templates, len(new_rules), line)
        seen[shape] = rule
        new_rules.append(rule)

    for rule in grammar.rules:
        optional = sum(marker in ("?", "*") for marker in rule.markers)
        if 2 ** optional > MAX_KLEENE_VARIANTS:
            raise GrammarError(
                f"rule {rule.rule_id} of {rule.mother!r} has {optional} optional "
                f"daughters, which would expand into {2 ** optional} "
                f"variants, more than {MAX_KLEENE_VARIANTS}", rule.line)
        # Each daughter contributes its expansion choices; the cross
        # product enumerates the marker-free variants of the rule.
        choices: list[list[Optional[str]]] = []
        for symbol, marker in zip(rule.daughters, rule.markers):
            if marker == "":
                choices.append([symbol])
            elif marker == "?":
                choices.append([None, symbol])
            elif marker == "*":
                choices.append([None, helper_for(symbol)])
            else:  # "+"
                choices.append([helper_for(symbol)])
        for variant in itertools.product(*choices):
            index_map = {}
            daughters = []
            for old_index, symbol in enumerate(variant, 1):
                if symbol is not None:
                    daughters.append(symbol)
                    index_map[old_index] = len(daughters)
            if daughters == [rule.mother] and rule.has_repetition():
                # an expanded unit self-cycle adds nothing to the language;
                # a written one is left for the cycle check to reject
                continue
            head_index = index_map[rule.head_index + 1] - 1
            templates = tuple(t for t in
                              (_remap_template(tpl, index_map)
                               for tpl in rule.gr_templates)
                              if t is not None)
            emit(rule.mother, tuple(daughters), head_index, rule.features, templates,
                 rule.line)
    for symbol, helper in sorted(helpers.items()):
        emit(helper, (symbol,), 0)
        emit(helper, (symbol, helper), 0)
    return Grammar(tuple(new_rules), grammar.start_symbol, grammar.terminals,
                   grammar.verb_tags)
