"""pi_kiln: high-precision series and infinite-product evaluation of powers
of pi, verified against an independent Machin-type oracle."""

from .bruno import BkSymbolic, TrigMonomial, bk_eval, bk_symbolic, faa_coefficient, render_bk, trig_factor
from .exact import (
    RadicalExpr,
    cos_pi_rational,
    golden_ratio,
    radical_eval,
    sin_pi_rational,
    sqrt_expr,
    trig_table,
)
from .numerics import BigFixed, PrecisionContext
from .oracle import reference_pi, reference_pi_alt, reference_pi_power
from .partitions import PartitionVector, enumerate_constrained
from .products import (
    CATALOG,
    ProductResult,
    ProductSpec,
    catalog_eval,
    catalog_ids,
    catalog_limit,
    euler_wallis,
    functional_equation_check,
    golden_ratio_check,
    prime_sieve,
    viete,
)
from .series import (
    PairedTermStream,
    SeriesResult,
    accelerated_alternating_sum,
    alternating_power_sum,
    appendix_pi_series,
    cot_difference_series,
    cotangent_series,
    derivative_identity_check,
    pi_power_from_series,
    reciprocal_sine_series,
)

__version__ = "0.1.0"

__all__ = [
    "BigFixed",
    "BkSymbolic",
    "CATALOG",
    "PairedTermStream",
    "PartitionVector",
    "PrecisionContext",
    "ProductResult",
    "ProductSpec",
    "RadicalExpr",
    "SeriesResult",
    "TrigMonomial",
    "accelerated_alternating_sum",
    "alternating_power_sum",
    "appendix_pi_series",
    "bk_eval",
    "bk_symbolic",
    "catalog_eval",
    "catalog_ids",
    "catalog_limit",
    "cos_pi_rational",
    "cot_difference_series",
    "cotangent_series",
    "derivative_identity_check",
    "enumerate_constrained",
    "euler_wallis",
    "faa_coefficient",
    "functional_equation_check",
    "golden_ratio",
    "golden_ratio_check",
    "pi_power_from_series",
    "prime_sieve",
    "radical_eval",
    "reciprocal_sine_series",
    "reference_pi",
    "reference_pi_alt",
    "reference_pi_power",
    "render_bk",
    "sin_pi_rational",
    "sqrt_expr",
    "trig_factor",
    "trig_table",
    "viete",
    "__version__",
]
