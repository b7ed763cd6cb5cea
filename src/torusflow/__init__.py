"""Pseudo-spectral Monte-Carlo simulator for 2D incompressible flow with
transport noise on the periodic torus."""

from .basis import (
    Basis,
    BasisMode,
    GridField,
    SpectralField,
    analyze,
    divergence_max,
    eval_mode,
    get_basis,
    gradient,
    h1_inner,
    h1_norm,
    l2_inner,
    l2_norm,
    leray_project,
    random_field,
    synthesize,
)
from .dynamics import (
    AdvectionTensor,
    ITO_VISCOSITY,
    build_advection_tensor,
    nonlinear_direct,
    nonlinear_pseudospectral,
    stokes_apply,
    transport_apply,
)
from .geometry import (
    StructureTables,
    build_structure_tables,
    geodesic_drift,
    lie_bracket,
)
from .integrate import (
    EnsembleDiagnostics,
    PathResult,
    SimConfig,
    run_ensemble,
    run_path,
    step,
)
from .diagnostics import (
    MartingaleProbe,
    energy_report,
    martingale_L_series,
    phi_v,
    qv_check,
)
from .noise import (
    NoiseModel,
    WienerIncrement,
    normalizer_cw,
    normalizer_cw_prime,
    q_coeff,
    sample_increments,
)

__version__ = "0.1.0"
