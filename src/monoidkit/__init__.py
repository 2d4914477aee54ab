"""monoidkit: pointed commutative monoids, their set categories, and K0 tools.

The pieces, bottom to top: finite and affine monoids (`monoids`, `affine`),
finite pointed sets with an action (`asets`), Serre subcategories and the
quotient category computed through windows (`serre`), the pushout/pullback
key diagram (`diagrams`), and divisor class groups, lattice complexes, and
K0 presentations (`ktheory`).  File formats live in `io`, exhaustive and
random object corpora in `corpora`, and every published value is recomputed
by `selftest` (also: ``monoidkit selftest``).
"""

from .affine import AffineMonoid
from .asets import (ASetMap, ExactSeq, FiniteASet, aset_length, is_pc_aset,
                    is_rooted_tree)
from .diagrams import KeyDiagram, key_diagram
from .errors import (ClosureBoundExceeded, InvalidStructure, MonoidKitError,
                     NotIso, NotNormal, NotZeroSmooth, ParseError,
                     PredicateClosureError, Undecidable, UnsupportedDegree)
from .groups import AbelianGroupPresentation
from .io import (load_aset, load_catspec, load_monoid, load_predicate,
                 save_aset, save_monoid)
from .ktheory import (LatticeComplex, StableConstants, burnside_rank,
                      class_group, coniveau_k0_report, devissage_check_k0,
                      div_matrix, dvm_report, gersten_complex,
                      gersten_exactness_check, k0_of_catspec, k_gamma,
                      localization_exactness_k0, w_group)
from .monoids import FiniteMonoid, NatMonoid, UnitGroupDescriptor
from .serre import (SerrePredicate, check_condition_w, check_filtered,
                    compose_quotient, hom_quotient, index_poset,
                    is_iso_quotient, monic_representative,
                    quotient_equivalence_report, support)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupPresentation", "AffineMonoid", "ASetMap",
    "ClosureBoundExceeded", "ExactSeq", "FiniteASet", "FiniteMonoid",
    "InvalidStructure", "KeyDiagram", "LatticeComplex", "MonoidKitError",
    "NatMonoid", "NotIso", "NotNormal", "NotZeroSmooth", "ParseError",
    "PredicateClosureError", "SerrePredicate", "StableConstants",
    "Undecidable", "UnitGroupDescriptor", "UnsupportedDegree",
    "aset_length", "burnside_rank", "check_condition_w", "check_filtered",
    "class_group", "compose_quotient", "coniveau_k0_report",
    "devissage_check_k0", "div_matrix", "dvm_report", "gersten_complex",
    "gersten_exactness_check", "hom_quotient", "index_poset", "is_iso_quotient",
    "is_pc_aset", "is_rooted_tree", "k0_of_catspec", "k_gamma", "key_diagram",
    "load_aset", "load_catspec", "load_monoid", "load_predicate",
    "localization_exactness_k0", "monic_representative",
    "quotient_equivalence_report", "save_aset", "save_monoid", "support",
    "w_group",
]
