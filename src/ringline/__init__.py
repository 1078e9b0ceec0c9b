"""ringline: exact arithmetic for projective lines over small finite rings,
the n-qubit Pauli algebra, and Mermin magic-configuration verification."""

import os
import sys

# ringline does no floating-point linear algebra, so numpy's BLAS thread
# pool is start-up cost only: one thread, unless the caller set a count or
# imported numpy already (when the pool exists and the setting is too late)
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .rings import (GaloisField, MixedRingError, ProductRing, QuotientRing,
                    Ring, RingError, RingHomomorphism, build_ring,
                    find_isomorphism, jacobson_radical, quotient_by_radical,
                    validate_hom)
from .projline import (DISTANT, EQUAL, NEIGHBOUR, LineCatalog, LineError,
                       ProjPoint, canonicalize, distant_points,
                       distinguished_subsets, enumerate_points,
                       expected_point_count, induced_point_map, is_admissible,
                       neighbourhood, pair_relation)
from .pauli import (PauliError, PauliObservable, all_words, commutes,
                    context_product_sign, multiply)
from .magic import (BksResult, Configuration, ConfigError, DeciderDisagreement,
                    VerificationReport, bks_decide, builtin, config_from_json,
                    config_to_json, infer_contexts, search_pentagrams,
                    search_squares, square_orbit_report, verify_each,
                    verify_magic)
from .entangle import (BasisClassification, classify_context,
                       mutually_unbiased, overlap_table)
from .correspond import (CondensationReport, CorrespondError, GraphComparison,
                         SlotBijection, condensation, edge_star_points,
                         pentagram_correspondence, square_correspondence)

__version__ = "0.1.0"
