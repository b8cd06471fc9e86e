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
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
# The GR field each slot of RELATION_SLOTS fills.
_SLOT_FIELDS = {"type": "gr_type", "head": "head", "dep": "dependent",
                "initial": "initial"}


class GRError(ValueError):
    """Malformed grammatical-relation text."""


class _GRFields(NamedTuple):
    relation: str
    head: str
    dependent: str
    gr_type: Optional[str]
    initial: Optional[str]


class GR(_GRFields):
    """One grammatical-relation tuple.

    ``gr_type`` and ``initial`` are None when unspecified; they render
    as ``_``.  A named tuple of its five fields, it compares and hashes
    like a plain tuple of them, so plain sets hold per-sentence
    relation sets.
    """

    __slots__ = ()

    def __new__(cls, relation: str, head: str, dependent: str,
                gr_type: Optional[str], initial: Optional[str]):
        if relation not in RELATION_SLOTS:
            raise GRError(f"unknown relation name {relation!r}")
        if not head or not dependent:
            raise GRError(f"{relation}: head and dependent must be non-empty")
        return super().__new__(cls, relation, head, dependent, gr_type,
                               initial)

    def render(self) -> str:
        values = (getattr(self, _SLOT_FIELDS[slot])
                  for slot in RELATION_SLOTS[self.relation])
        return "%s(%s)" % (self.relation, ",".join(
            "_" if value is None else value for value in values))


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
    fields.update((_SLOT_FIELDS[slot], None if arg == "_" else arg)
                  for slot, arg in zip(slots, args))
    return GR(name, **fields)


def read_gr_file(text: str) -> list[set[GR]]:
    """Read per-sentence relation sets, one block of lines each.  Only a
    blank line ends a block; ``#`` starts a comment, and a line holding
    only a comment is skipped."""
    sets: list[set[GR]] = []
    current: Optional[set[GR]] = None  # the open block's set
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not raw.strip():
            current = None
        elif line:
            if current is None:
                current = set()
                sets.append(current)
            try:
                current.add(parse_gr(line))
            except GRError as exc:
                raise GRError(f"line {lineno}: {exc}") from exc
    return sets


def render_gr_file(sets: Iterable[set[GR]]) -> str:
    """The text :func:`read_gr_file` reads back as ``sets``.  A block
    ends only at a blank line, so the format cannot hold an empty set:
    ``ValueError`` names the index of the first one."""
    blocks = []
    for index, grs in enumerate(sets):
        if not grs:
            raise ValueError(f"relation set {index} is empty, which a GR "
                             f"file cannot hold")
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
    """The size of a maximum matching, by Kuhn's augmenting paths, each
    searched depth first over an explicit stack: a path can pass
    through every left vertex."""
    match_right = [-1] * n_right
    matched = 0
    for source, rights in enumerate(adjacency):
        visited = [False] * n_right
        # the untried rights of each left on the path, and the right
        # each step takes; a step's left holds the step before's right
        stack = [iter(rights)]
        path: list[int] = []
        while stack:
            for right in stack[-1]:
                if not visited[right]:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited[right] = True
            path.append(right)
            if match_right[right] >= 0:
                stack.append(iter(adjacency[match_right[right]]))
                continue
            left = source
            for right in path:
                left, match_right[right] = match_right[right], left
            matched += 1
            break
    return matched


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
