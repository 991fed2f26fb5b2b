#!/usr/bin/env python3
"""Regenerate the bundled goldens under src/fano_enriques/data/.

The cover catalogs covers_codim{1,2,3}.json are curated inputs: the
script reads and validates them and never writes them.  Every golden is
`Reproduction.payload()` of one `catalog.reproduce()`, the JSON that
`fano-enriques verify-fixtures` compares against.  The script only puts
in its own rows, the same rows with curated labels and notes in the
order of the annotations below, after checking each search candidate
against them (expected torsion data, generator and relation bidegrees),
and checks the census and the worked series against their transcriptions.
It exits nonzero on the first inconsistency and writes no golden until
every one is built and checked, so a failed run leaves the data
directory untouched; it then compares the written files with that same
reproduction, exactly apart from the curated fields and row order.  The
package must read its data from the directory the script writes, this
checkout's; else the script stops before writing.

Run from the repository root:

    python scripts/build_catalogs.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from fano_enriques import catalog
from fano_enriques.enumeration import BtCandidate, canonicalize
from fano_enriques.exact import parse_rational, units
from fano_enriques.orbifold import Basket
from fano_enriques.quotient import CROSS_CODIMENSION

# the checkout's data directory, which the package must read as well
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "fano_enriques" / "data"


# --------------------------------------------------------------------------
# Admissible torsion baskets, transcribed from the source and keyed by
# labels "r.k" that only the ROWS_* annotations below refer to; k is not the
# position in the enumeration order (BT["2.1"] is the tenth basket of order
# 2).  The builder asserts that they coincide exactly with the enumeration.
# The census table printed by `fano-enriques verify-fixtures` numbers
# baskets by enumeration position instead.
# --------------------------------------------------------------------------

BT = {
    "2.1": (2, "1/2(1,1,1)_1, 1/14(1,1,13)_7"),
    "2.2": (2, "1/2(1,1,1)_1, 1/14(1,3,11)_7"),
    "2.3": (2, "1/2(1,1,1)_1, 1/14(1,5,9)_7"),
    "2.4": (2, "1/4(1,1,3)_2, 1/12(1,1,11)_6"),
    "2.5": (2, "1/4(1,1,3)_2, 1/12(1,5,7)_6"),
    "2.6": (2, "1/6(1,1,5)_3, 1/10(1,1,9)_5"),
    "2.7": (2, "1/6(1,1,5)_3, 1/10(1,3,7)_5"),
    "2.8": (2, "2x1/8(1,1,7)_4"),
    "2.9": (2, "1/8(1,1,7)_4, 1/8(1,3,5)_4"),
    "2.10": (2, "2x1/8(1,3,5)_4"),
    "2.11": (2, "3x1/2(1,1,1)_1, 1/10(1,1,9)_5"),
    "2.12": (2, "3x1/2(1,1,1)_1, 1/10(1,3,7)_5"),
    "2.13": (2, "2x1/2(1,1,1)_1, 1/4(1,1,3)_2, 1/8(1,1,7)_4"),
    "2.14": (2, "2x1/2(1,1,1)_1, 1/4(1,1,3)_2, 1/8(1,3,5)_4"),
    "2.15": (2, "2x1/2(1,1,1)_1, 2x1/6(1,1,5)_3"),
    "2.16": (2, "1/2(1,1,1)_1, 2x1/4(1,1,3)_2, 1/6(1,1,5)_3"),
    "2.17": (2, "4x1/4(1,1,3)_2"),
    "2.18": (2, "5x1/2(1,1,1)_1, 1/6(1,1,5)_3"),
    "2.19": (2, "4x1/2(1,1,1)_1, 2x1/4(1,1,3)_2"),
    "2.20": (2, "8x1/2(1,1,1)_1"),
    "3.1": (3, "1/9(1,1,8)_3, 1/9(1,1,8)_6"),
    "3.2": (3, "1/9(1,2,7)_3, 1/9(1,2,7)_6"),
    "3.3": (3, "1/9(1,4,5)_3, 1/9(1,4,5)_6"),
    "3.4": (3, "2x1/3(1,1,2)_1, 1/12(1,5,7)_4"),
    "3.5": (3, "1/3(1,1,2)_1, 1/3(1,1,2)_2, 1/6(1,1,5)_2, 1/6(1,1,5)_4"),
    "3.6": (3, "4x1/3(1,1,2)_1, 1/6(1,1,5)_4"),
    "3.7": (3, "3x1/3(1,1,2)_1, 3x1/3(1,1,2)_2"),
    "4.1": (4, "1/4(1,1,3)_2, 2x1/8(1,3,5)_2"),
    "4.2": (4, "2x1/2(1,1,1)_1, 1/4(1,1,3)_1, 1/12(1,5,7)_9"),
    "4.3": (4, "2x1/2(1,1,1)_1, 1/8(1,1,7)_2, 1/8(1,1,7)_6"),
    "4.4": (4, "2x1/2(1,1,1)_1, 1/8(1,3,5)_2, 1/8(1,3,5)_6"),
    "4.5": (4, "2x1/2(1,1,1)_1, 2x1/4(1,1,3)_1, 2x1/4(1,1,3)_3"),
    "5.1": (5, "2x1/5(1,2,3)_1, 1/10(1,3,7)_6"),
    "5.2": (5, "1/5(1,1,4)_1, 1/5(1,1,4)_2, 1/5(1,1,4)_3, 1/5(1,1,4)_4"),
    "5.3": (5, "1/5(1,1,4)_1, 1/5(1,1,4)_4, 1/5(1,2,3)_1, 1/5(1,2,3)_4"),
    "5.4": (5, "1/5(1,2,3)_1, 1/5(1,2,3)_2, 1/5(1,2,3)_3, 1/5(1,2,3)_4"),
    "6.1": (6, "2x1/3(1,1,2)_1, 1/4(1,1,3)_2, 1/12(1,5,7)_10"),
    "6.2": (6, "2x1/2(1,1,1)_1, 1/3(1,1,2)_1, 1/3(1,1,2)_2, 1/6(1,1,5)_1, 1/6(1,1,5)_5"),
    "8.1": (8, "1/2(1,1,1)_1, 1/4(1,1,3)_1, 1/8(1,3,5)_3, 1/8(1,3,5)_7"),
}


def bt_candidate(label: str) -> BtCandidate:
    r, text = BT[label]
    return canonicalize(BtCandidate(r, Basket.parse(text)))


# --------------------------------------------------------------------------
# The cover catalogs are the bundled covers_*.json, curated by hand and
# validated on load.  The covers of each catalog that are not a source row
# are named here; the golden records why each one drops out of the search.
# --------------------------------------------------------------------------

DECOYS = {
    # genuine Fano threefolds that admit no fixed-point-free quotient
    "covers_codim1.json": {
        "Y_{6} in P(1,1,1,1,3)",
        "Y_{10} in P(1,1,2,3,4)",
        "Y_{8} in P(1,1,2,2,3)",
    },
    "covers_codim2.json": {"Y_{4,6} in P(1,1,1,1,3,4)"},
    "covers_codim3.json": {
        # Stand-in for the upstream codimension-3 source-list entries that fit
        # every numeric restriction but whose series force a degree-4
        # generator and a degree-4 relation with different second degrees.
        # The source list is not reproducible from the data available here,
        # so this cover was found by exhaustive scan over quotient numerics:
        # in the searched space it is the only catalog-shaped cover whose
        # quotient candidates all go special with the documented degree-4
        # collision and which yields no clean candidate.
        "Y_{5,5,6,6,6} in P(1,1,2,2,3,3,3)",
        "Y_{3,3,4,4,4} in P(1,1,1,1,2,2,2)",
    },
}


# --------------------------------------------------------------------------
# Quotient row annotations.  Each row: (label, cover name, r, bt key,
# be basket string, kx string, generator bidegrees, relation bidegrees,
# status, flags, notes); a row that is not a source row has label None.
# Generator/relation bidegrees are matched against the engine output up
# to a simultaneous unit rescale of second degrees.  Rows are written in
# this order; special candidates that no row annotates follow them.
# --------------------------------------------------------------------------

CLEAN: tuple = ("clean", (), "")

ROWS_CODIM1 = [
    ("1", "Y_{4} in P(1,1,1,1,1)", 5, "5.4", "", "4/5",
     [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], [(4, 0)], *CLEAN),
    ("2", "Y_{5} in P(1,1,1,1,2)", 5, "5.1", "", "1/2",
     [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2)], [(5, 0)], *CLEAN),
    ("3", "Y_{6} in P(1,1,1,2,2)", 3, "3.7", "1/2(1,1,1)", "1/2",
     [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)], [(6, 0)], *CLEAN),
    ("4", "Y_{8} in P(1,1,1,2,4)", 2, "2.20", "1/2(1,1,1)", "1/2",
     [(1, 0), (1, 1), (1, 1), (2, 1), (4, 1)], [(8, 0)], *CLEAN),
    ("5", "Y_{9} in P(1,1,1,3,4)", 3, "3.4", "", "1/4",
     [(1, 0), (1, 1), (1, 2), (3, 2), (4, 1)], [(9, 0)], *CLEAN),
    ("6", "Y_{9} in P(1,1,2,3,3)", 3, "3.6", "1/3(1,1,2)", "1/6",
     [(1, 0), (1, 1), (2, 2), (3, 1), (3, 2)], [(9, 0)], *CLEAN),
    ("7", "Y_{12} in P(1,1,2,3,6)", 2, "2.19", "1/3(1,1,2)", "1/6",
     [(1, 0), (1, 1), (2, 1), (3, 1), (6, 1)], [(12, 0)], *CLEAN),
    ("8", "Y_{14} in P(1,1,2,4,7)", 2, "2.14", "1/2(1,1,1)", "1/8",
     [(1, 0), (1, 1), (2, 1), (4, 1), (7, 1)], [(14, 0)], *CLEAN),
    ("9", "Y_{16} in P(1,1,2,5,8)", 2, "2.12", "1/2(1,1,1)", "1/10",
     [(1, 0), (1, 1), (2, 1), (5, 1), (8, 1)], [(16, 0)], *CLEAN),
    ("10", "Y_{16} in P(1,1,3,4,8)", 2, "2.18", "1/4(1,1,3)", "1/12",
     [(1, 0), (1, 1), (3, 1), (4, 1), (8, 1)], [(16, 0)], *CLEAN),
    ("11", "Y_{20} in P(1,2,3,5,10)", 2, "2.16", "1/5(1,2,3)", "1/30",
     [(1, 0), (2, 1), (3, 1), (5, 1), (10, 1)], [(20, 0)], *CLEAN),
    ("12", "Y_{24} in P(1,2,3,7,12)", 2, "2.3", "1/2(1,1,1), 1/3(1,1,2)", "1/42",
     [(1, 0), (2, 1), (3, 1), (7, 1), (12, 1)], [(24, 0)], *CLEAN),
]

ROWS_CODIM2 = [
    ("1a", "Y_{2,3} in P(1,1,1,1,1,1)", 3, "3.7", "", "2",
     [(1, 0), (1, 0), (1, 1), (1, 1), (1, 2), (1, 2)], [(2, 0), (3, 0)], *CLEAN),
    ("1b", "Y_{2,3} in P(1,1,1,1,1,1)", 5, "5.2", "", "6/5",
     [(1, 0), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], [(2, 0), (3, 0)], *CLEAN),
    ("2", "Y_{3,3} in P(1,1,1,1,1,2)", 3, "3.6", "", "3/2",
     [(1, 0), (1, 0), (1, 1), (1, 1), (1, 2), (2, 2)], [(3, 0), (3, 0)], *CLEAN),
    ("3", "Y_{2,4} in P(1,1,1,1,1,2)", 2, "2.20", "", "2",
     [(1, 0), (1, 0), (1, 1), (1, 1), (1, 1), (2, 1)], [(2, 0)],
     "special", ("cross-codimension",),
     "inference forces a generator of bidegree (2,1) and a relation of "
     "bidegree (2,0) at the same degree; expected higher-codimension model"),
    (None, "Y_{2,4} in P(1,1,1,1,1,2)", 5, "5.4", "", "4/5",
     [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], [(4, 0)],
     "clean", (CROSS_CODIMENSION,),
     "not a separate source row: at order 5 the degree-2 relation and the "
     "weight-2 coordinate land on the same bidegree, the coordinate is "
     "eliminable, and the quotient coincides with row 1 of the "
     "hypersurface catalog"),
    ("4a", "Y_{3,4} in P(1,1,1,1,2,2)", 2, "2.19", "", "3/2",
     [(1, 0), (1, 0), (1, 1), (1, 1), (2, 1), (2, 1)], [(3, 0), (4, 0)], *CLEAN),
    ("4b", "Y_{3,4} in P(1,1,1,1,2,2)", 3, "3.5", "", "1",
     [(1, 0), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)], [(3, 0), (4, 0)], *CLEAN),
    ("4c", "Y_{3,4} in P(1,1,1,1,2,2)", 4, "4.3", "", "3/4",
     [(1, 0), (1, 0), (1, 1), (1, 3), (2, 1), (2, 3)], [(3, 0), (4, 0)],
     "clean", (),
     "errata: source row cites the basket position holding "
     "{2x1/2(1,1,1)_1, 1/8(1,1,7)_2, 1/8(1,1,7)_6}; the printed position "
     "points at the (1,3,5) variant, which contradicts the row content"),
    ("4d", "Y_{3,4} in P(1,1,1,1,2,2)", 4, "4.4", "", "3/4",
     [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3)], [(3, 2), (4, 0)], *CLEAN),
    ("5a", "Y_{4,4} in P(1,1,1,1,2,3)", 2, "2.18", "", "4/3",
     [(1, 0), (1, 0), (1, 1), (1, 1), (2, 1), (3, 1)], [(4, 0), (4, 0)],
     "clean", (),
     "errata: source row printed torsion order 4; the basket listed is the "
     "order-2 one and the cover -K^3 is not divisible by 4 in the required "
     "sense, so r = 2"),
    ("5b", "Y_{4,4} in P(1,1,1,1,2,3)", 4, "4.2", "", "2/3",
     [(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (3, 3)], [(4, 0), (4, 2)], *CLEAN),
    ("6a", "Y_{4,4} in P(1,1,1,2,2,2)", 2, "2.20", "2x1/2(1,1,1)", "1",
     [(1, 0), (1, 1), (1, 1), (2, 0), (2, 1), (2, 1)], [(4, 0), (4, 0)], *CLEAN),
    ("6b", "Y_{4,4} in P(1,1,1,2,2,2)", 2, "2.17", "", "1",
     [(1, 0), (1, 0), (1, 1), (2, 1), (2, 1), (2, 1)], [(4, 0), (4, 0)], *CLEAN),
    ("6c", "Y_{4,4} in P(1,1,1,2,2,2)", 4, "4.5", "1/2(1,1,1)", "1/2",
     [(1, 0), (1, 1), (1, 3), (2, 1), (2, 2), (2, 3)], [(4, 0), (4, 2)],
     "clean", (),
     "errata: source row printed 4x1/4(1,1,3)_3; multiplicity 2 is forced "
     "by the admissibility bound for order-4 torsion"),
    ("6d", "Y_{4,4} in P(1,1,1,2,2,2)", 4, "4.1", "", "1/2",
     [(1, 0), (1, 2), (1, 3), (2, 1), (2, 1), (2, 3)], [(4, 0), (4, 2)], *CLEAN),
    ("7", "Y_{4,5} in P(1,1,1,2,2,3)", 2, "2.16", "", "5/6",
     [(1, 0), (1, 0), (1, 1), (2, 1), (2, 1), (3, 1)], [(4, 0), (5, 0)], *CLEAN),
    ("8a", "Y_{4,6} in P(1,1,1,2,3,3)", 2, "2.20", "1/3(1,1,2)", "2/3",
     [(1, 0), (1, 1), (1, 1), (2, 1), (3, 0), (3, 1)], [(4, 0), (6, 0)],
     "clean", (),
     "errata: source row printed an unmarked free point of index 2, which "
     "cannot split off the cover's pair of index-3 points; the free point "
     "has index 3"),
    ("8b", "Y_{4,6} in P(1,1,1,2,3,3)", 2, "2.15", "", "2/3",
     [(1, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 1)], [(4, 0), (6, 0)], *CLEAN),
    ("8c", "Y_{4,6} in P(1,1,1,2,3,3)", 3, "3.2", "", "4/9",
     [(1, 0), (1, 1), (1, 2), (2, 0), (3, 1), (3, 2)], [(4, 0), (6, 0)], *CLEAN),
    ("9", "Y_{5,6} in P(1,1,1,2,3,4)", 2, "2.13", "", "5/8",
     [(1, 0), (1, 0), (1, 1), (2, 1), (3, 1), (4, 1)], [(5, 0), (6, 0)], *CLEAN),
    ("10", "Y_{6,8} in P(1,1,1,3,4,5)", 2, "2.11", "", "2/5",
     [(1, 0), (1, 0), (1, 1), (3, 1), (4, 1), (5, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("11", "Y_{4,6} in P(1,1,2,2,2,3)", 2, "2.19", "2x1/2(1,1,1)", "1/2",
     [(1, 0), (1, 1), (2, 0), (2, 1), (2, 1), (3, 1)], [(4, 0), (6, 0)], *CLEAN),
    ("12", "Y_{5,6} in P(1,1,2,2,3,3)", 3, "3.1", "1/2(1,1,1)", "5/18",
     [(1, 0), (1, 0), (2, 1), (2, 2), (3, 1), (3, 2)], [(5, 0), (6, 0)], *CLEAN),
    ("13", "Y_{4,8} in P(1,1,2,2,3,4)", 2, "2.18", "2x1/2(1,1,1)", "1/3",
     [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 1)], [(4, 0)],
     "special", ("cross-codimension",),
     "inference forces a generator of bidegree (4,1) and a relation of "
     "bidegree (4,0) at the same degree; expected higher-codimension model"),
    ("14", "Y_{6,7} in P(1,1,2,3,3,4)", 2, "2.14", "1/3(1,1,2)", "7/24",
     [(1, 0), (1, 1), (2, 1), (3, 0), (3, 1), (4, 1)], [(6, 0), (7, 0)], *CLEAN),
    ("15", "Y_{6,8} in P(1,1,2,3,3,5)", 2, "2.12", "1/3(1,1,2)", "4/15",
     [(1, 0), (1, 1), (2, 1), (3, 0), (3, 1), (5, 1)], [(6, 0), (8, 0)],
     "clean", (),
     "errata: source row cites the basket position holding "
     "{3x1/2(1,1,1)_1, 1/10(1,3,7)_5}; the printed position points at the "
     "(1,1,9) variant, which contradicts the row content"),
    ("16a", "Y_{6,8} in P(1,1,2,3,4,4)", 2, "2.19", "1/4(1,1,3)", "1/4",
     [(1, 0), (1, 1), (2, 1), (3, 1), (4, 0), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("16b", "Y_{6,8} in P(1,1,2,3,4,4)", 2, "2.8", "1/2(1,1,1)", "1/4",
     [(1, 0), (1, 0), (2, 1), (3, 1), (4, 1), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("16c", "Y_{6,8} in P(1,1,2,3,4,4)", 2, "2.10", "1/2(1,1,1)", "1/4",
     [(1, 0), (1, 1), (2, 1), (3, 0), (4, 1), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("17", "Y_{7,8} in P(1,1,2,3,4,5)", 2, "2.6", "1/2(1,1,1)", "7/30",
     [(1, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1)], [(7, 0), (8, 0)], *CLEAN),
    ("18", "Y_{8,9} in P(1,1,2,3,4,7)", 2, "2.2", "1/2(1,1,1)", "3/14",
     [(1, 0), (1, 1), (2, 1), (3, 0), (4, 1), (7, 1)], [(8, 0), (9, 0)],
     "clean", (),
     "errata: source row printed the action of the row above it; the "
     "torsion data here forces h^0(-K) = 1, so one weight-1 coordinate is "
     "anti-invariant and the weight-3 coordinate invariant"),
    ("19a", "Y_{8,10} in P(1,1,2,4,5,6)", 2, "2.4", "1/2(1,1,1)", "1/6",
     [(1, 0), (1, 0), (2, 1), (4, 1), (5, 1), (6, 1)], [(8, 0), (10, 0)], *CLEAN),
    ("19b", "Y_{8,10} in P(1,1,2,4,5,6)", 2, "2.5", "1/2(1,1,1)", "1/6",
     [(1, 0), (1, 1), (2, 1), (4, 1), (5, 0), (6, 1)], [(8, 0), (10, 0)], *CLEAN),
    ("20", "Y_{8,10} in P(1,1,3,4,5,5)", 2, "2.18", "1/5(1,1,4)", "2/15",
     [(1, 0), (1, 1), (3, 1), (4, 1), (5, 0), (5, 1)], [(8, 0), (10, 0)],
     "clean", (),
     "errata: source row printed a free point 1/5(1,1,5), which is not a "
     "cyclic quotient singularity; the cover carries 1/5(1,1,4) points and "
     "1/5(1,1,4) is the unique admissible repair"),
    ("21", "Y_{10,12} in P(1,1,3,5,6,7)", 2, "2.1", "1/3(1,1,2)", "2/21",
     [(1, 0), (1, 0), (3, 1), (5, 1), (6, 1), (7, 1)], [(10, 0), (12, 0)], *CLEAN),
    ("22a", "Y_{6,8} in P(1,2,2,3,3,4)", 2, "2.20", "3x1/2(1,1,1), 1/3(1,1,2)", "1/6",
     [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("22b", "Y_{6,8} in P(1,2,2,3,3,4)", 2, "2.15", "3x1/2(1,1,1)", "1/6",
     [(1, 0), (2, 0), (2, 1), (3, 1), (3, 1), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("22c", "Y_{6,8} in P(1,2,2,3,3,4)", 2, "2.17", "1/2(1,1,1), 1/3(1,1,2)", "1/6",
     [(1, 0), (2, 1), (2, 1), (3, 0), (3, 1), (4, 1)], [(6, 0), (8, 0)], *CLEAN),
    ("22d", "Y_{6,8} in P(1,2,2,3,3,4)", 3, "3.3", "2x1/2(1,1,1)", "1/9",
     [(1, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 0)], [(6, 0), (8, 0)], *CLEAN),
    ("23", "Y_{6,10} in P(1,2,2,3,4,5)", 2, "2.13", "3x1/2(1,1,1)", "1/8",
     [(1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (5, 1)], [(6, 0), (10, 0)], *CLEAN),
    ("24", "Y_{8,9} in P(1,2,3,3,4,5)", 2, "2.7", "1/2(1,1,1), 1/3(1,1,2)", "1/10",
     [(1, 0), (2, 1), (3, 0), (3, 1), (4, 1), (5, 1)], [(8, 0), (9, 0)], *CLEAN),
    ("25", "Y_{8,10} in P(1,2,3,4,4,5)", 2, "2.16", "1/2(1,1,1), 1/4(1,1,3)", "1/12",
     [(1, 0), (2, 1), (3, 1), (4, 0), (4, 1), (5, 1)], [(8, 0), (10, 0)],
     "clean", (),
     "errata: source row printed a free point 1/1(1,1,1); the residual "
     "orbit is a pair of half-points, so the entry is 1/2(1,1,1)"),
    ("26", "Y_{8,12} in P(1,2,3,4,5,6)", 2, "2.11", "2x1/2(1,1,1), 1/3(1,1,2)", "1/15",
     [(1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (6, 1)], [(8, 0), (12, 0)],
     "clean", (),
     "errata: source row printed 3x1/1(1,1,1) among the free points; the "
     "residual orbits are half-points, so they are 2x1/2(1,1,1) after the "
     "marked pair is accounted for"),
    ("27", "Y_{10,12} in P(1,2,3,5,5,7)", 2, "2.3", "1/5(1,2,3)", "2/35",
     [(1, 0), (2, 1), (3, 1), (5, 0), (5, 1), (7, 1)], [(10, 0), (12, 0)],
     "clean", (),
     "errata: source row printed a free point 1/1(1,1,1); the marked "
     "half-point already accounts for it and the free orbit is the "
     "1/5(1,2,3) pair"),
    ("28", "Y_{10,12} in P(1,3,4,4,5,6)", 2, "2.13", "1/3(1,1,2), 1/4(1,1,3)", "1/24",
     [(1, 0), (3, 1), (4, 0), (4, 1), (5, 1), (6, 1)], [(10, 0), (12, 0)],
     "clean", (),
     "errata: source row printed 2x1/1(1,1,1) among the free points; those "
     "slots hold the 1/3 and 1/4 free orbits"),
]

ROWS_CODIM3 = [
    ("1a", "Y_{2,2,2} in P(1,1,1,1,1,1,1)", 2, "2.20", "", "4",
     [(1, 0), (1, 0), (1, 0), (1, 1), (1, 1), (1, 1), (1, 1)],
     [(2, 0), (2, 0), (2, 0)], *CLEAN),
    ("1b", "Y_{2,2,2} in P(1,1,1,1,1,1,1)", 4, "4.5", "", "2",
     [(1, 0), (1, 0), (1, 1), (1, 1), (1, 2), (1, 3), (1, 3)],
     [(2, 0), (2, 0), (2, 2)], *CLEAN),
    ("1c", "Y_{2,2,2} in P(1,1,1,1,1,1,1)", 8, "8.1", "", "1",
     [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 7)],
     [(2, 0), (2, 2), (2, 4)],
     "clean", (),
     "errata: source row printed two marked half-points in the order-8 "
     "basket; admissibility forces a single one"),
    ("2", "Y_{4,4,4,4,4} in P(1,1,1,2,2,2,2)", 5, "5.3", "1/2(1,1,1)", "1/2",
     [(1, 0), (1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4)],
     [(4, 0), (4, 1), (4, 2), (4, 3), (4, 4)], *CLEAN),
    (None, "Y_{5,5,6,6,6} in P(1,1,2,2,3,3,3)", 2, "2.18",
     "1/2(1,1,1), 1/3(1,1,2)", "1/2",
     [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 1), (4, 1)],
     [(4, 0)],
     "special", (CROSS_CODIMENSION,),
     "the only candidate this cover admits; the series forces a degree-4 "
     "generator and a degree-4 relation with different second degrees, so "
     "the quotient is expected to live in higher codimension"),
]


# --------------------------------------------------------------------------
# build steps
# --------------------------------------------------------------------------


def fail(msg: str):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def degrees(c) -> str:
    gens, rels = ([(d.n, d.i) for d in ds] for ds in (c.presentation.generators,
                                                      c.presentation.relations))
    return f"{sorted(gens)} / {sorted(rels)}"


def bidegrees_match(r, presentation, want_gens, want_rels) -> bool:
    """Engine output vs annotation, up to one unit rescale of all second degrees."""
    gg = Counter((g.n, g.i) for g in presentation.generators)
    gq = Counter((q.n, q.i) for q in presentation.relations)
    for u in units(r):
        wg = Counter((n, (u * i) % r) for n, i in want_gens)
        wq = Counter((n, (u * i) % r) for n, i in want_rels)
        if wg == gg and wq == gq:
            return True
    return False


def build_quotients(rep, golden_name, rows):
    """Freeze one search of the reproduction as a golden:
    (file name, payload, summary line)."""
    covers_name = catalog.SEARCHES[golden_name]
    names = [entry["name"] for entry in catalog.bundled_json(covers_name)["entries"]]
    missing = DECOYS[covers_name].difference(names)
    if missing:
        fail(f"{covers_name}: decoys {sorted(missing)} not in catalog")
    decoys = [name for name in names if name in DECOYS[covers_name]]

    result = rep.searches[golden_name]
    by_key = {}
    for c in result:
        key = (c.cover.name, c.data.r, c.data.bt)
        if key in by_key:
            fail(f"{golden_name}: duplicate candidate {key[0]} r={key[1]} bt={key[2]}")
        by_key[key] = c

    rows_out, specials_out = [], []
    for label, cover, r, btkey, be_str, kx_str, gens, rels, status, flags, notes in rows:
        tag = f"{golden_name} row {label or cover}"
        if cover not in names:
            fail(f"{tag}: cover not in catalog")
        btc = bt_candidate(btkey)
        if btc.r != r:
            fail(f"{tag}: bt key {btkey} has order {btc.r}, row says {r}")
        be = Basket.parse(be_str)
        kx = Fraction(kx_str)

        c = by_key.pop((cover, r, btc.entries), None)
        if c is None:
            fail(f"{tag}: search produced no candidate")
        if c.status != status:
            fail(f"{tag}: status {c.status}, expected {status}")
        if c.data.be != be:
            fail(f"{tag}: be {c.data.be} != {be}")
        if c.data.minus_k_cubed != kx:
            fail(f"{tag}: kx {c.data.minus_k_cubed} != {kx}")
        if tuple(sorted(c.diagnostics)) != tuple(sorted(flags)):
            fail(f"{tag}: flags {c.diagnostics} != {flags}")
        if not bidegrees_match(r, c.presentation, gens, rels):
            fail(f"{tag}: presentation {degrees(c)} does not match "
                 f"{sorted(gens)} / {sorted(rels)} up to unit rescale")

        row = c.to_json()
        if label is not None:
            row["label"] = label
        if notes:
            row["notes"] = notes
        (rows_out if status == "clean" else specials_out).append(row)

    # what no row annotates, by cover, order and basket (a Basket is not orderable)
    for (cover, r, bt), c in sorted(by_key.items(), key=lambda kv: (*kv[0][:2], kv[0][2].entries)):
        if c.status == "clean":
            fail(f"{golden_name}: unexpected clean candidate {cover} r={r} "
                 f"bt={bt} be={c.data.be} {degrees(c)}")
        row = c.to_json()
        row["notes"] = (
            "additional special-status candidate surfaced by the search; "
            "kept so the golden freezes the full outcome"
        )
        specials_out.append(row)

    payload = rep.payload(golden_name, decoys)
    reasons = {decoy["cover"]: decoy["reasons"] for decoy in payload["decoys"]}
    for name in decoys:
        if name not in reasons:
            fail(f"{golden_name}: decoy {name} produced a clean candidate")
        if not reasons[name]:
            fail(f"{golden_name}: decoy {name} was never rejected")
    payload.update(rows=rows_out, special_cases=specials_out)
    return golden_name, payload, (
        f"  {golden_name}: {len(rows_out)} clean rows, {len(specials_out)} special, "
        f"{len(decoys)} decoys, {len(result.rejections)} rejections")


def build_torsion(rep):
    want = Counter((btc.r, btc.entries) for btc in map(bt_candidate, BT))
    got = Counter((c.r, c.entries) for c in rep.census)
    if want != got:
        orders = sorted({r for r, _ in (want - got) + (got - want)})
        fail(f"torsion: transcribed baskets differ from the enumeration at orders {orders}")
    summary = f"  torsion_baskets.json: {len(rep.census)} baskets"
    return "torsion_baskets.json", rep.payload("torsion_baskets.json"), summary


def build_series_examples(rep):
    # hypersurface quotient pair: the bigraded components of the order-5
    # quotient must sum to the plain series of its cover, degree by degree
    plain, twisted = rep.examples["untwisted"], rep.examples["bigraded"]
    coeffs, components = plain["coeffs"], twisted["components"]
    if coeffs != [str(c) for c in (1, 4, 11, 24, 46, 79, 126, 189, 271, 374)]:
        fail("series examples: untwisted coefficients moved")
    if plain["peeled"] != {"0": "1", "5": "-1"}:
        fail(f"series examples: untwisted peel is not 1 - t^5 ({plain['peeled']})")
    if components[0] != [str(c) for c in (1, 1, 2, 5, 9, 16, 25, 38, 54, 74)]:
        fail("series examples: bigraded component 0 moved")
    for m in range(10):
        total = sum(parse_rational(row[m]) for row in components)
        if total != parse_rational(coeffs[m]):
            fail(f"series examples: component sum differs from cover at t^{m}")
    if twisted["peeled"] != {"0,0": "1", "5,0": "-1"}:
        fail(f"series examples: bigraded peel is not 1 - t^5 ({twisted['peeled']})")
    name = "series_examples.json"
    return name, rep.payload(name), f"  {name}: written"


def main():
    package_data = catalog._data_root()
    if Path(str(package_data)).resolve() != DATA_DIR.resolve():
        fail(f"the package reads {package_data}, not this checkout's {DATA_DIR}; "
             f"put the checkout's src/ first on the path")
    print("building bundled fixtures ...")
    rep = catalog.reproduce()
    built = [
        build_torsion(rep),
        build_series_examples(rep),
        build_quotients(rep, "quotients_codim1.json", ROWS_CODIM1),
        build_quotients(rep, "quotients_codim2.json", ROWS_CODIM2),
        build_quotients(rep, "quotients_codim3.json", ROWS_CODIM3),
    ]
    # every golden is built and checked before the first is written, so a
    # failed build leaves the data directory as it was
    for name, payload, summary in built:
        (DATA_DIR / name).write_text(json.dumps(payload, indent=1) + "\n")
        print(summary)

    problems = rep.mismatches()
    if problems:
        fail("verify_fixtures: " + "; ".join(problems))
    print("verify_fixtures: all bundled fixtures check out")


if __name__ == "__main__":
    main()
