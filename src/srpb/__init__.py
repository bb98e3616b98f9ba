"""srpb: exact patching of projective modules over Stanley-Reisner rings.

Decomposes monomial quotient rings into fiber squares, patches projective
modules and isomorphisms across them, lifts invertible matrices and
unimodular rows along the quotients, and emits certificates that an
independent verifier re-checks with plain normal-form arithmetic.
"""

from .engines import (HypothesisProfile, Obligation, UmLiftResult,
                      always_fail_oracle, cancel_witness, chain_oracles,
                      conjugation_witness_oracle, extend_witness,
                      stable_adapter, umrow_lift)
from .errors import (AllStrategiesFailed, ContextError, ExprError, HomError,
                     InputError, InternalCheckError, LifterError, NonUnitError,
                     PreconditionError, RankError, ShapeError, SrpbError,
                     UnsupportedRingError)
from .expr import parse_expression
from .fields import GF, QQ, Field
from .groebner import (GroebnerBasis, MembershipCertificate, buchberger, member,
                       unimodular_cert)
from .lifting import (DEFAULT_STRATEGIES, det_unit_inverse, lift_gl,
                      whitehead_lift)
from .matrix import PolyMatrix
from .poly import Polynomial, PolyRing, format_polynomial
from .projmod import (ModIso, ProjModule, UmRow, base_change, glue_iso_traced,
                      kernel_module, milnor_patch, module_rank, pair_aut,
                      section_aut_lifter)
from .quotient import (FiberSquare, GLMat, QuotientRing, RingHom,
                       build_fiber_square, complex_of_ring, fiber_check,
                       hom_check, sr_quotient, unit_inverse)
from .simplicial import (ApexDecomposition, SimplicialComplex,
                         apex_decomposition, cone, deletion, link,
                         minimal_nonfaces, sr_ideal, star)
from .smith import SmithDecomposition, smith_normal_form
from .verifier import VerifierReport, verify_file, verify_payload

__version__ = "0.1.0"
