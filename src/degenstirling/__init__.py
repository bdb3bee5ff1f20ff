"""Exact computation of degenerate Stirling, Bell and Lah families, with a
boson normal-ordering engine and a truncated-series lab as independent
cross checks."""

from .algebra import (
    LAMBDA,
    LambdaPoly,
    TruncatedSeries,
    X,
    XPoly,
    as_rational,
    degenerate_exp_series,
    falling_scalar,
    gen_falling,
    rational_str,
    rising_scalar,
    series_exp,
)
from .bell import (
    DobinskiResult,
    bell_rs_poly,
    dobinski_eval,
    dobinski_rr,
    gamma_formula_classical,
    r_bell_poly,
    r_bell_recurrence,
)
from .serieslab import (
    CheckReport,
    Mismatch,
    bell_egf_check,
    r_bell_egf_check,
    rr_egf_check,
    stirling_egf_check,
)
from .stirling import (
    BasisCoeffs,
    falling_basis_poly,
    gen_falling_factorial,
    lah_degenerate,
    lah_signed_degenerate,
    r_stirling_degenerate,
    rising_basis_poly,
    rr_basis_identity,
    stirling2_degenerate,
    stirling_rr_degenerate,
    stirling_rs_degenerate,
    to_falling_basis,
    to_rising_basis,
)
from .weyl import NormalForm, degenerate_product, extract_stirling

__version__ = "0.1.0"
