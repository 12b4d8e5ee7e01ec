"""heckelab: exact Moebius/Hecke arithmetic and mod-p Galois image tools.

The package is organized around finite, checkable shadows of modular
curve arithmetic: exact GL2(Q)+ actions on the upper half-plane and CM
points (moebius), congruence subgroup enumeration and indices
(congruence), Hecke coset decompositions and modular polynomials
(hecke), certified q-series evaluation of j (jfunction), seeded axiom
checks (axioms), Frobenius sampling and mod-p image certificates
(galois), orbit/index reports (typecount), and a JSON batch CLI (cli).
"""

from .axioms import AxiomReport, check_mod1, check_mod2, check_sf, check_sp
from .congruence import (
    FiniteMatrixGroup,
    GroupDescriptor,
    Subgroup,
    compatibility_divisor,
    enumerate_sl2,
    image_at_level,
    index,
    is_normal,
    lift_to_sl2z,
    membership,
    normal_core,
    parse_group,
    required_level,
    sl2_order,
)
from .errors import (
    BadDeterminant,
    BadReduction,
    EvidenceInsufficient,
    HeckeLabError,
    IllConditioned,
    IncompatibleLevel,
    LevelTooLarge,
    NoConvergence,
    NotElliptic,
    NotGeneratingModP,
    NotSquarefree,
    NotSubdirect,
    OrderAmbiguous,
    PrecisionExhausted,
    PrecisionInsufficient,
)
from .galois import (
    EllipticCurve,
    FrobeniusSample,
    GoursatCertificate,
    GoursatDecomposition,
    ImageCertificate,
    LiftingReport,
    certify_goursat_pair,
    certify_mod_p_image,
    count_points,
    frobenius_sample,
    goursat_decompose,
    lifting_check,
    parse_curve,
    standard_lifts,
)
from .hecke import (
    CosetDecomposition,
    ModularPolynomial,
    cached_modular_polynomial,
    correspondence_fiber,
    double_coset_reps,
    load_modpoly,
    modular_polynomial,
    psi,
    save_modpoly,
    verify_disjoint,
)
from .jfunction import (
    DEFAULT_CTX,
    JResult,
    QSeriesContext,
    invert_j,
    j,
    reduce_fundamental,
    reduce_fundamental_exact,
)
from .moebius import (
    CMPoint,
    ElementClass,
    ElementKind,
    NumericPoint,
    RatMatrix,
    StabilizerReport,
    act,
    classify,
    fixed_point,
    parse_matrix,
    special_witness,
    squarefree_decompose,
    stabilizer_is_trivial,
)
from .typecount import (
    CosetSpace,
    TypeCountReport,
    count_orbits,
    regular_space,
    type_count_report,
)

__version__ = "0.1.0"
