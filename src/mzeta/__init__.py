"""Exact-arithmetic toolkit for zeta series of varieties, lambda-ring and
big-Witt-ring operations, and rationality certificates for power series
over commutative coefficient rings.

The modules layer bottom-up: rings (exact coefficient arithmetic), series
(truncated power series), symfunc (universal symmetric-function
polynomials), lambda_rings (Witt operations and lambda structures),
rationality (Hankel, global, pointwise, and periodic-ratio tests), motivic
(variety expressions and their zeta series), measures (surface measure
sequences and the irrationality harness), suite (named self-checks), and
cli (the `mzeta` executable); oracles holds the brute-force references the
checks compare against and imports nothing else from the package.
"""

from .errors import (
    DegreeCutoffError,
    InvalidInputError,
    MissingDataError,
    NoClosedFormError,
    PrecisionError,
    ToolkitError,
    VarietySyntaxError,
)
from .lambda_rings import (
    LambdaElement,
    WittElement,
    adams,
    check_special,
    opposite_sigma,
    witt_add,
    witt_lambda,
    witt_mul,
)
from .measures import SurfaceData, irrationality_harness, mu, mu_sym_sequence
from .motivic import (
    MotivicModel,
    parse_variety,
    specialize,
    virtual_finiteness_check,
    zeta_rational,
    zeta_series,
)
from .rationality import (
    GroupSeries,
    hankel_test,
    pade_reconstruct,
    periodic_ratio_test,
    pointwise_test,
    reconstruct_from_witness,
    verify_global,
)
from .rings import (
    FractionField,
    IntegerRing,
    MultiPoly,
    PolynomialRing,
    SquareZeroRing,
)
from .series import TruncSeries, series_from_json
from .symfunc import (
    newton_polynomial,
    universal_P,
    universal_Q,
    witt_product_coeff,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeCutoffError",
    "FractionField",
    "GroupSeries",
    "IntegerRing",
    "InvalidInputError",
    "LambdaElement",
    "MissingDataError",
    "MotivicModel",
    "MultiPoly",
    "NoClosedFormError",
    "PolynomialRing",
    "PrecisionError",
    "SquareZeroRing",
    "SurfaceData",
    "ToolkitError",
    "TruncSeries",
    "VarietySyntaxError",
    "WittElement",
    "adams",
    "check_special",
    "hankel_test",
    "irrationality_harness",
    "mu",
    "mu_sym_sequence",
    "newton_polynomial",
    "opposite_sigma",
    "pade_reconstruct",
    "parse_variety",
    "periodic_ratio_test",
    "pointwise_test",
    "reconstruct_from_witness",
    "series_from_json",
    "specialize",
    "universal_P",
    "universal_Q",
    "verify_global",
    "virtual_finiteness_check",
    "witt_add",
    "witt_lambda",
    "witt_mul",
    "witt_product_coeff",
    "zeta_rational",
    "zeta_series",
]
