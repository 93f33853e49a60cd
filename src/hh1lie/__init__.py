"""Exact GF(p) computer algebra for finite-dimensional associative algebras.

Builds structure-constant algebras (truncated polynomial rings, smash
products with a multiplicative torus action, bound quiver algebras,
trivial extensions), computes their derivation Lie algebras and first
Hochschild cohomology with the restricted p-structure, and analyses the
resulting restricted Lie algebras (solvability, simplicity, tori).
"""

from .gfp import Subspace, check_prime, kernel, rref
from .algebras import (
    Algebra,
    QuiverPresentation,
    SmashDescriptor,
    block_decomposition,
    center,
    commutator_and_radical_checks,
    kronecker_quiver,
    make_algebra,
    quiver_algebra,
    smash_product,
    split_semisimple,
    symmetric_form_search,
    tkr_quiver,
    trivial_extension,
    truncated_polynomial,
    u0_borel,
)
from .hochschild import (
    Derivation,
    HH1Presentation,
    derivation_space,
    hh1,
    inner_derivations,
    named_inner,
    named_outer,
)
from .lie import (
    Fingerprint,
    RestrictedLie,
    TorusReport,
    fingerprint,
    from_hh1,
    gl2,
    greedy_maximal_torus,
    is_simple,
    is_trigonalizable,
    jacobson_p_power,
    prop22_witness,
    same_fingerprint,
    series_and_predicates,
    sl2,
    witt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
