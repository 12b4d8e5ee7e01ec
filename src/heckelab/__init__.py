"""heckelab: exact Moebius/Hecke arithmetic and mod-p Galois image tools.

The package is organized around finite, checkable shadows of modular
curve arithmetic: exact GL2(Q)+ actions on the upper half-plane and CM
points (moebius), finite congruence quotients SL2(Z/N) and subgroup
orders (congruence), Hecke coset decompositions and modular polynomials
(hecke), certified q-series evaluation of j (jfunction), seeded axiom
checks (axioms), Frobenius sampling and mod-p image certificates
(galois), orbit/index reports (typecount), and a JSON batch CLI (cli).
"""

from .axioms import AxiomReport, check_mod1, check_mod2, check_sf, check_sp
from .congruence import (
    CosetSpace,
    FiniteMatrixGroup,
    Subgroup,
    closure,
    enumerate_sl2,
    sl2_order,
    subgroup_order,
)
from .errors import (
    BadDeterminant,
    BadReduction,
    EvidenceInsufficient,
    HeckeLabError,
    IllConditioned,
    LevelTooLarge,
    NoConvergence,
    NotElliptic,
    NotSquarefree,
    NotSubdirect,
    OrderAmbiguous,
    PrecisionExhausted,
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
    correspondence_fiber,
    double_coset_reps,
    modular_polynomial,
    psi,
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
    act,
    classify,
    fixed_point,
    parse_matrix,
    special_witness,
    squarefree_decompose,
)
from .typecount import (
    TypeCountReport,
    count_orbits,
    regular_space,
    type_count_report,
)

__version__ = "0.1.0"
