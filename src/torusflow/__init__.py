"""Pseudo-spectral Monte-Carlo simulator for 2D incompressible flow with
transport noise on the periodic torus."""

from .basis import (
    Basis,
    BasisMode,
    SpectralField,
    divergence_max,
    get_basis,
    gradient,
    l2_inner,
    leray_project,
    random_field,
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
    SimConfig,
    run_ensemble,
    run_path,
    step,
)
from .diagnostics import (
    MartingaleProbe,
    energy_report,
    qv_check,
)
from .noise import (
    NoiseModel,
    WienerIncrement,
    normalizer_cw,
    normalizer_cw_prime,
    q_coeff,
)

__version__ = "0.1.0"
