"""Exact symbolic verification of algebroid axiom systems.

Models anchored vector bundles over polynomial function rings with exact
rational arithmetic, computes anomaly tensors and cohomology
coboundaries, and decides which labelled axiom profiles (lie, kv, cc,
courant, nonasym-courant, clan) a structure satisfies, with concrete
witnesses for every failure.
"""

__version__ = "0.1.0"

from .exactmath import Poly, PolyParseError, parse_poly
from .funmodel import (
    AlgebroidStructure,
    AnchorMap,
    BiDiffOp,
    DCochain,
    DiffOp,
    MultiDiffOp,
    Pairing,
    Section,
    Witness,
    conjugate,
)
from .checkers import (
    PROFILES,
    AxiomEntry,
    AxiomReport,
    check_all_profiles,
    check_profile,
    derive_nonasym_consequences,
    verify_anchor_morphism,
    verify_equivalence_A1_A2,
    verify_prop_64,
)
from .kvfin import (
    FinCochain,
    FinKVAlgebra,
    SymForm,
    clan_classify,
    cohomology_summary,
    commutator_bracket,
    exactness_witness,
    fin_coboundary,
    kv_defect_fin,
    kv_nu,
    mc_check,
)
from .catalog import CatalogEntry, catalog_get, catalog_names

__all__ = [
    "AlgebroidStructure",
    "AnchorMap",
    "AxiomEntry",
    "AxiomReport",
    "BiDiffOp",
    "CatalogEntry",
    "DCochain",
    "DiffOp",
    "FinCochain",
    "FinKVAlgebra",
    "MultiDiffOp",
    "PROFILES",
    "Pairing",
    "Poly",
    "PolyParseError",
    "Section",
    "SymForm",
    "Witness",
    "catalog_get",
    "catalog_names",
    "check_all_profiles",
    "check_profile",
    "clan_classify",
    "cohomology_summary",
    "commutator_bracket",
    "conjugate",
    "derive_nonasym_consequences",
    "exactness_witness",
    "fin_coboundary",
    "kv_defect_fin",
    "kv_nu",
    "mc_check",
    "parse_poly",
    "verify_anchor_morphism",
    "verify_equivalence_A1_A2",
    "verify_prop_64",
]
