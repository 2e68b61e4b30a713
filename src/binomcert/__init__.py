"""binomcert: certified bounds on central binomial coefficients and Catalan
numbers, plus a verifier CLI for the published tables they come from.

Exact combinatorics (ints, Fractions) provides ground truth; dyadic interval
arithmetic with outward rounding makes every bound comparison a proof.
"""

from .bounds import (
    BoundResult,
    agievich_catalan,
    agievich_central,
    agievich_general,
    agievich_shifted,
    catalan_upper,
    central_lower,
    central_ratio,
    central_upper,
    general_exponent,
    general_rs_bound,
    sasvari_pair,
)
from .combinatorics import (
    bernoulli,
    binomial,
    catalan,
    central_binomial,
    central_binomials,
)
from .errata import ErrataEntry, build_errata
from .interval import (
    DomainError,
    Dyadic,
    IntervalReal,
    NeedsMorePrecision,
    PrecisionPolicy,
    TriState,
    certainly_less,
    exp,
    from_int,
    from_rational,
    pi,
    render_significant,
    sqrt,
)
from .sweeps import (
    SweepReport,
    alternation_sweep,
    dominance_sweep,
    general_r_sweep,
    order_improvement_sweep,
    run_verify,
    sandwich_sweep,
)
from .tables import TableReport, build_table

__version__ = "0.1.0"
