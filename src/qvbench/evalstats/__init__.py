"""Effectiveness metrics and the statistical analysis layer."""

from .agreement import (
    AGREEMENT_CLASSES,
    PairVerdict,
    ProfilePairAgreement,
    agreement_from_verdicts,
    system_verdicts,
)
from .anova import (
    AnovaRow,
    AnovaTable,
    EffectivenessMatrix,
    MarginalMean,
    anova,
    classify_omega,
    marginal_means,
    omega_squared_partial,
)
from .metrics import (
    MannWhitneyResult,
    kendall_tau,
    mann_whitney_u,
    ndcg_at_k,
)
from .tukey import (
    TukeyResult,
    studentized_range_cdf,
    studentized_range_quantile,
    tukey_hsd,
)

__all__ = [
    "AGREEMENT_CLASSES",
    "AnovaRow",
    "AnovaTable",
    "EffectivenessMatrix",
    "MannWhitneyResult",
    "MarginalMean",
    "PairVerdict",
    "ProfilePairAgreement",
    "TukeyResult",
    "agreement_from_verdicts",
    "anova",
    "classify_omega",
    "kendall_tau",
    "mann_whitney_u",
    "marginal_means",
    "ndcg_at_k",
    "omega_squared_partial",
    "studentized_range_cdf",
    "studentized_range_quantile",
    "system_verdicts",
    "tukey_hsd",
]
