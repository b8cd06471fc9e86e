"""Grammatical relations: the relation hierarchy, tuple representation,
matching with one-level subsumption, and per-sentence scoring.

A grammatical relation is a head/dependent dependency tuple such as
``ncsubj(intend,Paul,_)`` or ``xcomp(to,intend,leave)``.  Relations are
organised in a hierarchy rooted at ``dependent``; ``subj_or_dobj`` is an
additional parent of both ``subj`` and ``dobj``.  A relation produced by
a parser matches a gold relation when the names are equal or the parser's
name sits exactly one level above the gold name, the head and dependent
lemmas agree, and any type/initial slot either agrees or is unspecified
(``_``) on the parser side.  Wildcards are directional: an unspecified
gold slot is matched only by an unspecified parser slot.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Mapping, Optional, Sequence

# Slot layout per relation name, in surface order.  "type" holds e.g. a
# preposition or "to"; "initial" holds an initial grammatical function
# (as in the passive by-phrase).
RELATION_SLOTS: Mapping[str, tuple[str, ...]] = {
    "dependent": ("head", "dep"),
    "mod": ("type", "head", "dep"),
    "ncmod": ("type", "head", "dep"),
    "xmod": ("type", "head", "dep"),
    "cmod": ("type", "head", "dep"),
    "arg_mod": ("type", "head", "dep", "initial"),
    "arg": ("head", "dep"),
    "subj": ("head", "dep", "initial"),
    "subj_or_dobj": ("head", "dep"),
    "ncsubj": ("head", "dep", "initial"),
    "xsubj": ("head", "dep", "initial"),
    "csubj": ("head", "dep", "initial"),
    "comp": ("head", "dep"),
    "obj": ("head", "dep"),
    "clausal": ("type", "head", "dep"),
    "dobj": ("head", "dep", "initial"),
    "obj2": ("head", "dep"),
    "iobj": ("type", "head", "dep"),
    "xcomp": ("type", "head", "dep"),
    "ccomp": ("type", "head", "dep"),
}

# Immediate parents in the hierarchy.  The root "dependent" has none.
RELATION_PARENTS: Mapping[str, tuple[str, ...]] = {
    "mod": ("dependent",),
    "arg_mod": ("dependent",),
    "arg": ("dependent",),
    "ncmod": ("mod",),
    "xmod": ("mod",),
    "cmod": ("mod",),
    "subj": ("arg", "subj_or_dobj"),
    "subj_or_dobj": ("arg",),
    "comp": ("arg",),
    "ncsubj": ("subj",),
    "xsubj": ("subj",),
    "csubj": ("subj",),
    "obj": ("comp",),
    "clausal": ("comp",),
    "dobj": ("obj", "subj_or_dobj"),
    "obj2": ("obj",),
    "iobj": ("obj",),
    "xcomp": ("clausal",),
    "ccomp": ("clausal",),
}

SUBJECT_RELATIONS = frozenset({"subj", "ncsubj", "xsubj", "csubj"})

_GR_RE = re.compile(r"^\s*([a-z_0-9]+)\s*\(\s*(.*?)\s*\)\s*$")


class GRError(ValueError):
    """Malformed grammatical-relation text."""


class GR:
    """One grammatical-relation tuple.

    ``gr_type`` and ``initial`` are None when unspecified; they render
    as ``_``.  Instances are immutable by convention and hash by their
    five fields, so plain sets are used for per-sentence relation sets.
    """

    __slots__ = ("relation", "head", "dependent", "gr_type", "initial")

    def __init__(self, relation: str, head: str, dependent: str,
                 gr_type: Optional[str], initial: Optional[str]):
        if relation not in RELATION_SLOTS:
            raise GRError(f"unknown relation name {relation!r}")
        if not head or not dependent:
            raise GRError(f"{relation}: head and dependent must be non-empty")
        self.relation = relation
        self.head = head
        self.dependent = dependent
        self.gr_type = gr_type
        self.initial = initial

    def _key(self) -> tuple:
        return (self.relation, self.head, self.dependent, self.gr_type,
                self.initial)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("GR(relation=%r, head=%r, dependent=%r, gr_type=%r, "
                "initial=%r)" % self._key())

    def render(self) -> str:
        parts = []
        for slot in RELATION_SLOTS[self.relation]:
            value = {"type": self.gr_type, "head": self.head,
                     "dep": self.dependent, "initial": self.initial}[slot]
            parts.append("_" if value is None else value)
        return "%s(%s)" % (self.relation, ",".join(parts))


def parse_gr(text: str) -> GR:
    """Parse one relation in surface syntax, e.g. ``iobj(from,hear,Hatfield)``."""
    m = _GR_RE.match(text)
    if not m:
        raise GRError(f"cannot parse relation: {text!r}")
    name, body = m.group(1), m.group(2)
    slots = RELATION_SLOTS.get(name)
    if slots is None:
        raise GRError(f"unknown relation name {name!r}")
    args = [a.strip() for a in body.split(",")] if body else []
    if len(args) != len(slots):
        raise GRError(
            f"{name} takes {len(slots)} slots ({', '.join(slots)}), got {len(args)}: {text!r}")
    fields = {"gr_type": None, "initial": None}
    for slot, arg in zip(slots, args):
        value = None if arg == "_" else arg
        if slot == "head":
            fields["head"] = value or ""
        elif slot == "dep":
            fields["dependent"] = value or ""
        elif slot == "type":
            fields["gr_type"] = value
        else:
            fields["initial"] = value
    return GR(relation=name, **fields)


def read_gr_file(text: str) -> list[set[GR]]:
    """Read blank-line-separated per-sentence relation sets."""
    sets: list[set[GR]] = []
    current: set[GR] = set()
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if seen_any:
                sets.append(current)
                current = set()
                seen_any = False
            continue
        try:
            current.add(parse_gr(line))
        except GRError as exc:
            raise GRError(f"line {lineno}: {exc}") from exc
        seen_any = True
    if seen_any:
        sets.append(current)
    return sets


def render_gr_file(sets: Iterable[set[GR]]) -> str:
    blocks = []
    for grs in sets:
        blocks.append("\n".join(sorted(gr.render() for gr in grs)))
    return "\n\n".join(blocks) + "\n"


def gr_match(test: GR, gold: GR) -> bool:
    """True when ``test`` counts as a correct recovery of ``gold``.

    Subsumption is one level only and parser-side only: ``clausal``
    matches gold ``xcomp``, but a gold ``clausal`` is not matched by a
    test ``xcomp``.
    """
    if test.relation != gold.relation and \
            test.relation not in RELATION_PARENTS.get(gold.relation, ()):
        return False
    if test.head != gold.head or test.dependent != gold.dependent:
        return False
    if test.gr_type is not None and test.gr_type != gold.gr_type:
        return False
    if test.initial is not None and test.initial != gold.initial:
        return False
    return True


def _max_matching(adjacency: Sequence[Sequence[int]], n_right: int) -> int:
    """The size of a maximum matching, by Kuhn's augmenting paths."""
    match_right = [-1] * n_right

    def try_augment(left: int, visited: list[bool]) -> bool:
        for right in adjacency[left]:
            if visited[right]:
                continue
            visited[right] = True
            if match_right[right] < 0 or try_augment(match_right[right], visited):
                match_right[right] = left
                return True
        return False

    return sum(try_augment(left, [False] * n_right)
               for left in range(len(adjacency)))


def gr_scores(test: set[GR], gold: set[GR]) -> dict:
    """Per-sentence counts under one-to-one assignment: ``matched`` is
    the size of a largest one-to-one assignment of test relations to
    gold relations they match (:func:`gr_match`), so each gold relation
    is consumed by at most one test relation and each test relation
    consumes at most one."""
    gold_list = list(gold)
    adjacency = [[j for j, g in enumerate(gold_list) if gr_match(t, g)]
                 for t in test]
    return {"matched": _max_matching(adjacency, len(gold_list)),
            "test_total": len(test), "gold_total": len(gold_list)}


def relation_histogram(sets: Iterable[set[GR]]) -> tuple[dict[str, int], float]:
    """Total count per relation name plus mean relations per sentence."""
    counts: Counter[str] = Counter()
    n_sentences = 0
    total = 0
    for grs in sets:
        n_sentences += 1
        total += len(grs)
        counts.update(gr.relation for gr in grs)
    mean = total / n_sentences if n_sentences else 0.0
    return dict(counts), mean
