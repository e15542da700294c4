"""Exact star edge-coloring toolkit for subcubic multigraphs.

Submodules: multigraph (data model, codecs, canonical forms), density
(exact maximum average degree), starcolor (verifier, exact solver),
structure (vertex classes, lemma predicates, cube covers), discharge
(charge ledger and audit), atlas (enumeration, sweeps, cache, criticality
hunt), cli (command-line front end).
"""

from .density import mad
from .discharge import apply_rules, audit, initial_charges
from .multigraph import (
    FormatError,
    Multigraph,
    build,
    canonical_form,
    decode_canonical,
    parse_edge_list,
    parse_graph6,
)
from .starcolor import (
    EdgeColoring,
    Violation,
    emit_coloring,
    find_violation,
    is_star_coloring,
    is_star_k_colorable,
    parse_coloring,
    star_chromatic_index,
)
from .structure import (
    VertexProfile,
    classify,
    covers_cube,
    lemma_audit,
    strip_ones,
    verify_cover,
)
from .atlas import enumerate_graphs, find_critical, load_cache, summary_text, sweep

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "Multigraph",
    "build",
    "canonical_form",
    "decode_canonical",
    "parse_edge_list",
    "parse_graph6",
    "mad",
    "EdgeColoring",
    "Violation",
    "parse_coloring",
    "emit_coloring",
    "find_violation",
    "is_star_coloring",
    "is_star_k_colorable",
    "star_chromatic_index",
    "VertexProfile",
    "classify",
    "strip_ones",
    "lemma_audit",
    "covers_cube",
    "verify_cover",
    "initial_charges",
    "apply_rules",
    "audit",
    "enumerate_graphs",
    "sweep",
    "summary_text",
    "load_cache",
    "find_critical",
    "__version__",
]
