"""Global optimization by double-descent local search and colored
intermittent diffusion, plus the benchmark harness around it."""

from .potentials import (
    ClusterCoordinates,
    EvaluationError,
    Potential,
    available_problems,
    get_potential,
    make_biggs,
    make_boggs,
    make_camel,
    make_lennard_jones,
    make_molei,
    make_morse,
    make_rosenbrock,
    make_shubert,
)
from .spectral import (
    NoPositiveSubspaceError,
    NotSymmetricError,
    SpectralInfo,
    ZeroGradientError,
    alignment_ratio,
    eigendecompose,
    newton_solve,
    positive_part_pseudoinverse,
)
from .local_search import (
    LocalSearchResult,
    StepController,
    StepUnderflowError,
    Tolerances,
    double_descent_direction,
    gradient_descent,
    minimize,
    saddle_search,
    stopping_criterion,
)
from .diffusion import (
    DiffusionConfig,
    EscapeResult,
    NoiseSource,
    colored_noise,
    escape_minimum,
    escape_saddle,
    initial_kick,
    white_noise_id_step,
)
from .explorer import (
    CriticalPoint,
    CriticalPointTable,
    ExplorationConfig,
    RunReport,
    classify,
    explore,
    select_escape_target,
)
from .harness import (
    AnnealConfig,
    BenchmarkSpec,
    emit_report,
    monte_carlo_descent,
    run_benchmark,
    simulated_annealing,
)

__all__ = [name for name in dir() if not name.startswith("_")]
