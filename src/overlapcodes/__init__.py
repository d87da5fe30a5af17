"""Binary codes with forbidden prefix/suffix overlaps.

Two words of one length n have a t-overlap when the t-prefix of one equals
the t-suffix of the other; a code is overlap-free for [t1, t2] when no
ordered pair of its words (self-pairs included) has such an overlap. The
package constructs such codes, verifies them, searches small cases
exhaustively, and evaluates the closed-form bounds, with exact arithmetic
throughout.
"""

from .codes import (
    Code,
    OverlapWitness,
    PrefixSuffixSystem,
    brute_force_max_code,
    expand_system,
    is_overlap_free,
    read_code,
    symbolic_size,
    validate_system,
    write_code,
)
from .constructions import (
    DoublingStep,
    GLResult,
    MMinResult,
    ZeroBlockResult,
    doubling,
    gilbert_levenshtein,
    m_minimum,
    zero_block,
)
from .counting import (
    ClassicBounds,
    SymbolicSize,
    classic_bounds,
    count_cyclic_run_free,
    count_cyclic_spaced_ones,
    count_no_zero_run,
    fib_nstep,
    lower_bound_explicit,
    render_decimal,
    upper_bound_1k,
    upper_bound_graph,
    upper_bound_weak,
)
from .errors import CapacityError, DomainError
from .graph import (
    MatchingCertificate,
    OverlapGraph,
    SearchResult,
    build_overlap_graph,
    max_cardinality_search,
    max_product_search,
    mis_matching_certificate,
)
from .tables import TableReport, golden_tables, reproduce_table
from .words import BitWord, parse, prefix, suffix, t_overlap

__version__ = "0.1.0"

__all__ = [
    "BitWord",
    "CapacityError",
    "ClassicBounds",
    "Code",
    "DomainError",
    "DoublingStep",
    "GLResult",
    "MMinResult",
    "MatchingCertificate",
    "OverlapGraph",
    "OverlapWitness",
    "PrefixSuffixSystem",
    "SearchResult",
    "SymbolicSize",
    "TableReport",
    "ZeroBlockResult",
    "brute_force_max_code",
    "build_overlap_graph",
    "classic_bounds",
    "count_cyclic_run_free",
    "count_cyclic_spaced_ones",
    "count_no_zero_run",
    "doubling",
    "expand_system",
    "fib_nstep",
    "gilbert_levenshtein",
    "golden_tables",
    "is_overlap_free",
    "lower_bound_explicit",
    "m_minimum",
    "max_cardinality_search",
    "max_product_search",
    "mis_matching_certificate",
    "parse",
    "prefix",
    "read_code",
    "render_decimal",
    "reproduce_table",
    "suffix",
    "symbolic_size",
    "t_overlap",
    "upper_bound_1k",
    "upper_bound_graph",
    "upper_bound_weak",
    "validate_system",
    "write_code",
    "zero_block",
]
