"""Coarse-grained position/momentum uncertainty toolkit."""

from .bounds import (
    VERDICT_TOL,
    BoundSet,
    FeasibilityRegion,
    RelationReport,
    binned_relation_reports,
    bound_B,
    bound_L,
    bound_R,
    check_coarse_relations,
    check_continuous_relations,
    feasibility_region,
    func_F,
    func_K,
    func_M,
    func_M_inv,
    moment_relation_reports,
)
from .coarse import (
    EPS_TAIL,
    BinnedDistribution,
    GhfSpec,
    ReconstructedPdf,
    TailBudgetExceeded,
    WidthMismatch,
    bin_density,
    decompose_stats,
    discrete_renyi,
    discrete_variance,
    ghf_entropy,
    ghf_variance,
    sample_counts,
)
from .numerics import Divergent, DomainError, NonConvergence
from .specfun import ProlateResult, prolate_r00
from .states import (
    Density1D,
    Gaussian,
    HermiteGauss,
    Mixture,
    SquareWell,
    StateModel,
    catalog_states,
    momentum_density,
    position_density,
    renyi_entropy_cont,
    variance,
)

__version__ = "0.1.0"
