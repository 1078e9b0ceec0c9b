"""ringline: exact arithmetic for projective lines over small finite rings,
the n-qubit Pauli algebra, and Mermin magic-configuration verification."""

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
                    search_squares, square_orbit_report, verify_magic,
                    verify_many)
from .entangle import (BasisClassification, classify_context,
                       mutually_unbiased, overlap_table)
from .correspond import (CondensationReport, CorrespondError, GraphComparison,
                         SlotBijection, condensation, edge_star_points,
                         pentagram_correspondence, square_correspondence)

__version__ = "0.1.0"
