"""Quaternion triples of complex structures on compact group manifolds.

The package constructs classical root systems, compact-algebra matrix
representations in a root-adapted orthonormal basis and their structure
constants f, then, from f and the root table alone, the canonical complex
structure and its partners J and K, rotated by closed-form Lie-algebra
automorphisms.  It certifies numerically that the triple satisfies the
quaternion algebra, the integrability identity and the torsion conditions,
for group manifolds and their centralizer quotients.
"""

from .rootsys import (
    Root,
    RootSystem,
    UnsupportedAlgebraError,
    basic_root_chain,
    build_root_system,
    coroot,
    dynkin_diagram,
    extended_dynkin_surgery,
    root_chain,
)
from .liealg import (
    AlgebraRep,
    CliffordRep,
    ConstructionError,
    StructureConstants,
    build_abelian_rep,
    build_clifford,
    build_matrix_rep,
    structure_constants,
)
from .cstruct import (
    ComplexStructure,
    PairingError,
    bismut_residual,
    canonical_I,
    integrability_residual,
    nijenhuis_at_origin,
    quaternion_residual,
)
from .autom import (
    Automorphism,
    automorphism_from_root,
    basic_roots,
    build_quaternion_triple,
    centralizer,
    make_csa_pairing,
)
from .spaces import (
    SpaceSpec,
    VerificationReport,
    build_coset_triple,
    classify_family,
    enumerate_quotients,
    required_padding,
)

__version__ = "0.1.0"
