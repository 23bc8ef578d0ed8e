"""Spline-basis traffic classifiers with a synthetic VANET testbed."""

from .errors import (
    BadIndexError,
    ConfigError,
    DegenerateKnotsError,
    EmptyDataError,
    EmptySampleError,
    InsufficientDataError,
    InvalidAbscissaeError,
    ModelLoadError,
    NumericalError,
    OutOfDomainError,
    ParseError,
    ShapeError,
    SplineIdsError,
    SplitError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    ModelKind,
    emit_curves,
    emit_report,
    load_model,
    run_experiment,
    save_model,
    split_train_test,
)
from .logistic import (
    ConfusionMatrix,
    DesignMatrix,
    LogisticModel,
    accuracy,
    build_design_matrix,
    classify,
    confusion_matrix,
    fit_logistic,
    predict_prob,
)
from .simulate import (
    AttackType,
    CellParams,
    ScenarioConfig,
    TrafficRecord,
    generate_dataset,
    read_csv,
    write_csv,
)
from .splines import (
    BasisKind,
    BSplineBasis,
    InterpolationData,
    KnotVector,
    PiecewisePolynomial,
    SplineBasisSpec,
    basis_matrix,
    basis_row,
    bspline_blend,
    eval_linear_interpolant,
    eval_piecewise,
    fit_natural_cubic_spline,
    fit_quadratic_spline,
    quantile,
    quantile_knots,
)

__version__ = "0.1.0"
