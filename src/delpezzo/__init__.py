"""Classification of quasi-smooth log del Pezzo hypersurfaces in weighted P^3.

Exact-arithmetic enumeration by Fano index, arithmetic Kähler-Einstein
certificates, Milnor-Orlik link topology, and moduli dimensions, with the
published classification tables embedded for regression.
"""

from .diophantine import solve_condition_system, witness_branches
from .errors import (
    CatalogIntegrityError,
    InvariantViolation,
    NonPrimitiveWeights,
    PreconditionError,
)
from .klt import (
    Certified,
    KltVerdict,
    NotKltGate,
    Unknown,
    certify_KE,
    gate_check,
)
from .moduli import (
    ModuliReport,
    aut_dimension,
    moduli_report,
)
from .quasismooth import Rejection, is_quasismooth
from .records import CandidateRecord, build_record, classify
from .search import brute_force_enumerate, structured_enumerate
from .topology import (
    LinkReport,
    characteristic_divisor,
    diffeo_type,
    milnor_number,
)
from .weights import (
    Candidate,
    WeightSystem,
    count_monomials,
    is_well_formed,
    normalize_weights,
)

__version__ = "0.1.0"
