"""Verb subcategorisation frame inventory.

The default inventory lists the complement-frame symbols a grammar may
assign to verbal rules through the VSUBCAT feature; grammar files are
checked against it.  For lexicons the inventory is data, not a closed
enum: a lexicon may be loaded against a custom inventory, and smoothing
always uses the size of whatever inventory is in force.
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
