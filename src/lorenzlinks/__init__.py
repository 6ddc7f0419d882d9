"""
lorenzlinks: Lorenz links, T-links, positive braid words and their invariants.

The package provides the one-to-one translation between Lorenz braids (given
by displacement vectors) and T-links (given by twisting parameters), braid
words for both at four different braid indices, a left-greedy normal form
engine deciding the positive-braid word problem, torus-link detection, and
exact integer invariants (components, genus, braid index, Alexander
polynomials by two independent routes).
"""

from .braid import (
    BraidWord,
    Permutation,
    bracket,
    cycle_count,
    flip_word,
    format_word,
    parse_word,
    permutation_braid_word,
    power,
)
from .census import CensusEntry, Report, load_census, report, report_all
from .errors import ParseError, UnsupportedInput
from .garside import NormalForm, normal_form, periodic_word, words_equal
from .invariants import (
    InvariantReport,
    burau_alexander,
    invariant_report,
    morton_alexander,
)
from .laurent import LaurentPoly, normalize_units, poly_equal_up_to_units
from .lorenz import (
    UNKNOT,
    LorenzVector,
    TmTriple,
    Unknot,
    classify_strands,
    dual_vector,
    format_vector,
    lorenz_braid_word,
    lorenz_permutation,
    milestone_words,
    minimal_braid_word,
    normalize,
    parse_vector,
    tm_triple,
    trip_number,
    vector_from_triple,
)
from .tlink import (
    TParams,
    braid_index,
    dual_tparams,
    format_tparams,
    parse_tparams,
    tbraid_word,
    torus_simplify,
    tparams_to_vector,
    vector_to_tparams,
    x_word,
    y_word,
    z_word,
)
from .torus import TorusVerdict, is_torus

__version__ = "0.1.0"
