"""chronident: clock-ensemble noise identification from phase differences.

Simulates ensembles of clocks observed through pairwise phase differences
against a pivot clock and identifies the noise intensities, drifts and
measurement-noise covariance with two estimators: a weighted least-squares
fit of Allan covariances and a measurement-difference (residue moment)
method.
"""

from .errors import (
    ChannelUnusableError,
    ChronidentError,
    InvalidCovarianceError,
    NoResidueError,
    UnidentifiableError,
)
from .ident_acov import (
    build_regression,
    estimate_acov_method,
    solve_theta_a,
    theta_a_from_params,
)
from .ident_mdm import (
    MdmSystem,
    build_mdm_system,
    compute_residues,
    estimate_mdm,
    estimate_theta_alpha,
)
from .model import (
    ClockParams,
    EnsembleModel,
    EnsembleParams,
    assemble_ensemble,
    clock_drift_mean,
    clock_noise_cov,
    clock_transition,
    ensemble_structure,
    load_ensemble_config,
    pack_theta,
    second_difference_moments,
    theta_alpha_from_params,
    unpack_theta,
)
from .report import EstimateReport, write_report_json
from .simulate import (
    MeasurementRecord,
    OutlierReport,
    derive_run_seed,
    read_measurements_csv,
    remove_outliers,
    simulate_ensemble,
    write_measurements_csv,
)
from .stability import (
    AcovEstimate,
    TauGrid,
    acov_grid,
    analytic_acov,
    clock_avar,
    default_grid,
    log_spaced_grid,
)

__version__ = "0.1.0"
