"""Global optimization by double-descent local search and colored
intermittent diffusion, plus the benchmark harness around it.

The package exports the problems, the configs, ``explore`` and the
harness; every other name lives in its module (``ddcid.local_search``,
``ddcid.diffusion``, ``ddcid.explorer``, ``ddcid.spectral``, ...)."""

from .potentials import (
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
from .local_search import Tolerances
from .diffusion import DiffusionConfig, NoiseSource
from .explorer import ExplorationConfig, RunReport, explore
from .harness import (
    AnnealConfig,
    BenchmarkSpec,
    emit_report,
    monte_carlo_descent,
    run_benchmark,
)
