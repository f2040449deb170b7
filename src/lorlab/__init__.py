"""Numerical lab for 1+1 warped-product spacetimes g = -a(t) dt^2 + b(t) dx^2.

Causal geodesics (dual ODE/quadrature solvers), causal relations and the
Lorentzian distance, finite sampled causal spaces with axiom checkers, and
desk-scale probes of three completeness conditions.
"""

from .causality import (
    CausalVerdict,
    DistanceResult,
    causally_related,
    cone_boundary,
    cone_time,
    d_length,
    flat_time,
    lorentzian_distance,
    minkowski_reduce,
    tau_length_chain,
)
from .discrete import (
    AxiomReport,
    CheckResult,
    DiscreteCausalSpace,
    check_axioms,
    check_causality,
    check_pushup,
    sample_space,
    space_from_points,
)
from .errors import (
    DomainExceeded,
    Inextendible,
    InvalidProfile,
    LorlabError,
    NotAChain,
    NotCausal,
    NotChronological,
    NotReducible,
    PremiseViolated,
    QuadratureError,
    RegionOutsideDomain,
    ShootingFailed,
    StepTooLarge,
    TooLarge,
)
from .geodesics import (
    DRIFT_TOL,
    ConservedQuantities,
    GeodesicPath,
    InextendibleCertificate,
    affine_bound,
    causal_exp,
    conserved_quantities,
    exp_continuity_probe,
    geodesic_states,
    integrate_geodesic,
    ode_rhs,
    quadrature_advance,
    uniqueness_witness,
)
from .probes import (
    ImplicationReport,
    K1Region,
    ProbeConfig,
    ProbeReport,
    implication_report,
    k1_slices,
    make_cauchy_sequence,
    probe_condition_a,
    probe_finite_compactness,
    probe_timelike_cauchy,
    replay_witness,
)
from .profiles import (
    CATALOG_NAMES,
    EPS_NULL,
    CausalCharacter,
    ChristoffelTriple,
    MetricProfile,
    SpacetimePoint,
    TangentVector,
    Term,
    christoffel,
    classify_vector,
    const,
    eval_profile,
    exponential,
    format_profile,
    get_profile,
    linear,
    load_profiles,
    parse_profiles,
    power,
)

__version__ = "0.1.0"
