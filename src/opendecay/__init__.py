"""Open-quantum-system toolkit for unstable states.

Simulates the master equation of a decaying system, where a non-hermitian
effective Hamiltonian and a Lindblad dissipator drive probability loss, next
to its probability-conserving reformulation on the direct sum of the system
space and a decay-product space.  Analysis routines certify the structural
relations between the two pictures: trace behaviour, positivity, complete
positivity via Choi matrices, asymptotic decay limits, purity, and the
amplitude-damping Kraus form of the single decay channel.
"""

from .analysis import (
    ChoiMatrix,
    KrausPair,
    VerificationReport,
    apply_kraus,
    asymptotics_check,
    check_cp,
    check_cp_generator,
    check_positivity,
    check_trace,
    choi_matrix,
    choi_of_superoperator,
    kraus_amplitude_damping,
    mixedness,
)
from .cli import (
    RunResult,
    ScenarioConfig,
    builtin_scenario_path,
    main,
    parse_config,
    run_scenario,
    serialize_config,
    write_timeseries,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DimensionError,
    GridError,
    NotHermitianError,
    NotPSDError,
    NumericsError,
    ParseError,
    ToolkitError,
    ValidationError,
)
from .evolution import (
    BlockDensity,
    IntegratorConfig,
    Trajectory,
    closed_form_1d,
    evolve_enlarged,
    evolve_wwa,
    integrate_rk4,
    propagate_exact,
    rho_ff_quadrature,
    rhs_enlarged,
    rhs_wwa,
)
from .linalg import (
    HermitianBasis,
    HermitianEigen,
    expm,
    frobenius,
    hermitian_eig,
    require_hermitian,
    unvec,
    vec,
)
from .model import (
    DecayOperator,
    EnlargedModel,
    GammaDecomposition,
    Liouvillian,
    MasterEquation,
    SystemSpec,
    assemble_liouvillian,
    assemble_liouvillian_wwa,
    build_decay_operator,
    decompose_gamma,
    effective_hamiltonian,
    embed_operators,
    embed_state,
    validate_spec,
)
from .randmodel import SplitMix64, random_system

__version__ = "0.1.0"
