"""Verb subcategorisation frame inventory.

The inventory is closed: it lists every complement frame a grammar may
assign to a verbal rule through the VSUBCAT feature.  Grammar files are
checked against it, lexicon entries must name one of its frames, and
frame probabilities are smoothed over all of it (K = 29).
"""

DEFAULT_FRAME_INVENTORY = (
    "AP",
    "NONE",
    "NP",
    "NP_AP",
    "NP_NP",
    "NP_NP_SCOMP",
    "NP_PP",
    "NP_PPOF",
    "NP_PP_PP",
    "NP_SCOMP",
    "NP_WHPP",
    "PP",
    "PP_AP",
    "PP_PP",
    "PP_SCOMP",
    "PP_VPINF",
    "PP_WHPP",
    "PP_WHS",
    "PP_WHVP",
    "SCOMP",
    "SINF",
    "SING",
    "SING_PP",
    "VPBSE",
    "VPINF",
    "VPING",
    "VPING_PP",
    "VPPRT",
    "WHPP",
)

FRAMES = frozenset(DEFAULT_FRAME_INVENTORY)
