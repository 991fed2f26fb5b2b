"""Exact arithmetic for Fano threefolds with torsion.

Hilbert series of Fano and Fano-Enriques threefolds from numerical data
(-K^3, singularity basket, torsion markings), presentation inference
from series, enumeration of admissible torsion markings, and a search
for quotient constructions over catalogs of known Fano threefolds.

Everything is exact: coefficients are rationals, comparisons are
equalities, and the two independent routes to each quantity (integer
period vs pointwise, orbifold series vs model series) are reconciled
rather than trusted individually.
"""

from .errors import (
    CatalogError,
    EngineError,
    IncompatibleSeriesError,
    InconsistentDataError,
    InconsistentMarkingError,
    InferenceFailureError,
    InternalConsistencyError,
    InvalidModulusError,
    MalformedInputError,
    NoInverseError,
    NonInvertibleFactorError,
    NotTerminalError,
    OutOfRangeError,
    UnnormalizedResidualError,
)
from .exact import (
    Rational,
    format_rational,
    is_integer,
    mod_inverse,
    parse_rational,
    residue,
    units,
)
from .orbifold import (
    SMOOTH,
    Basket,
    MarkedSingularity,
    SingularityType,
    compose_actions,
    forced_preimage,
    inverse_weight,
    normalize_type,
    preimage_singularity,
    terminal_sum,
)
from .series import Bidegree, BigradedSeries
from .hilbert import (
    FanoData,
    FanoEnriquesData,
    altinok_series,
    bigraded_series,
    parity_defect,
    pfaffian_series,
    torsion_delta_at,
    torsion_delta_series,
    wci_series,
)
from .gradedrings import (
    Presentation,
    infer_presentation,
    presentation_series,
)
from .enumeration import (
    MAX_INDEX,
    MAX_TORSION,
    BtCandidate,
    RestrictionReport,
    canonicalize,
    check_restrictions,
    enumerate_bt,
)
from .quotient import (
    CROSS_CODIMENSION,
    CoverRecord,
    QuotientCandidate,
    Rejection,
    SearchResult,
    match_cover,
    search,
)
from .catalog import (
    bundled_catalog,
    bundled_json,
    load_catalog,
    resolve_catalog,
    save_catalog,
    verify_fixtures,
)

__version__ = "0.1.0"
