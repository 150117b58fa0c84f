"""Desk-scale toolkit for hereditary operator inequalities.

Subpackages by concern:

- series: truncated power-series arithmetic, Cesaro numbers and the
  generators' tail certificates
- conditions: decidable/trend checks for the standing hypotheses
- operators: dense exemplars, shift sections, hereditary calculus
- model: defect operator, transform, complement and isometry construction
- ergodic: Cesaro means, boundedness probes, threshold oracles
- specdsl / cli: kernel specification language and command line
"""

from .series import (
    Binomial,
    Derived,
    FileList,
    KernelPair,
    Polynomial,
    PowSign,
    PowerTail,
    TruncatedSeries,
    binomial_series,
    cauchy_product,
    cesaro_numbers,
    reciprocal,
)
from .conditions import ConditionReport, SignPattern, Verdict, generate_sign_pattern_kernel
from .operators import (
    BlockDiagOperator,
    DenseOperator,
    Direction,
    ShiftSection,
    hereditary_apply,
    operator_norm,
    shift_membership_backward,
    shift_membership_forward,
    shift_section,
)
from .model import ModelBundle, build_model, bundle_direct_sum, verify_relation_DCW
from .ergodic import (
    MOVING_BASIS,
    OracleKind,
    cesaro_probe,
    shift_threshold_oracle,
    trichotomy_test,
)
from .specdsl import elaborate, parse_kernel_spec

__version__ = "0.1.0"
