"""heckelab: exact Moebius/Hecke arithmetic and mod-p Galois image tools.

The package is organized around finite, checkable shadows of modular
curve arithmetic: exact GL2(Q)+ actions on the upper half-plane and CM
points (moebius), orders of subgroups of SL2(Z/N) from their generators
(congruence), Hecke coset decompositions and modular polynomials
(hecke), certified q-series evaluation of j (jfunction), seeded axiom
checks (axioms), Frobenius sampling, mod-p image certificates and the
lifting check mod p^2 (galois), index reports (typecount), and a JSON
batch CLI (cli).  mpmath is imported inside the functions that use it,
so importing the package, and every CLI command but `j` and `axiom
mod1`/`mod2`/`sp`, leaves it unloaded.  The value classes are
namedtuples from `collections`, so no import or command loads
`dataclasses` or `inspect`.
"""

from .axioms import AxiomReport, check_mod1, check_mod2, check_sf, check_sp
from .congruence import closure, sl2_order, subgroup_order
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
    OrderAmbiguous,
    PrecisionExhausted,
)
from .galois import (
    EllipticCurve,
    FrobeniusSample,
    GoursatCertificate,
    ImageCertificate,
    LiftingReport,
    certify_goursat_pair,
    certify_mod_p_image,
    count_points,
    frobenius_sample,
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
from .typecount import TypeCountReport, type_count_report

__version__ = "0.1.0"
