"""Direct-effect estimation under unobserved, interacting confounders.

The package estimates the p x m direct-effect matrix of a multivariate
response regression when hidden variables confound the observed
covariates, including through covariate-hidden interactions. The hidden
signal is removed by projecting the responses onto the orthogonal
complement of a learned singular space.
"""

__version__ = "0.1.0"

import ctypes as _ctypes


def _keep_freed_memory() -> None:
    """Have glibc keep freed large buffers in the heap for the next fit.

    By default glibc maps every allocation above 128 KiB afresh and gives
    freed heap tops back to the OS, raising both limits only after a
    larger mapped block is freed. A fit at m = 500 then faults in new
    pages for its n x m arrays and LAPACK workspaces on every call: on a
    2-vCPU Xeon with OpenBLAS, a non_interaction_homo fit at m = 500,
    n = 1000 took 35 ms with the limits raised and 43-46 ms without.
    The values are glibc's own ceilings for those limits. Without
    glibc's mallopt this does nothing.
    """
    try:
        mallopt = _ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
    mallopt.restype = _ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_memory()

from .bench import (
    CVReport,
    ExperimentGrid,
    ExperimentReport,
    KSelectionReport,
    cross_validate,
    pmse_log,
    run_grid,
    run_k_selection,
    snr,
    sse_log,
)
from .errors import (
    DataError,
    DeconfoundError,
    DegenerateBasisWarning,
    DimensionMismatchError,
    NonFiniteError,
    NumericalError,
    RankDeficientError,
)
from .estimators import Stage, fit_method
from .model import (
    METHODS,
    Dataset,
    DebiasedEstimate,
    FirstStageFit,
    GroundTruth,
    ProjectionBasis,
    SimulationConfig,
    validate,
)
from .regress import expand_interactions, fit_first_stage, fit_projected_ols, least_squares
from .simulate import generate, generate_test_split
from .spectral import (
    SpectrumSummary,
    build_projection,
    default_k_star,
    hetero_pca,
    select_k,
    sin_theta,
    top_k_eigenvectors,
)
