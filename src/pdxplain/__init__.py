"""Company default prediction on synthetic financial panels, with exact
Shapley attributions, rating-grade mapping, and expert alignment scoring."""

__version__ = "0.5.0"  # set before the submodule imports: pipeline reads it at import

from .alignment import AlignmentReport, ExpertSurvey, align, aggregate_and_rank, load_survey
from .dataprep import (
    FeatureMatrix,
    ScalerParams,
    SplitResult,
    SplitSpec,
    Statements,
    apply_scaler,
    fit_scaler,
    label_statements,
    prepare,
    read_statements,
    split,
    statement_features,
    yearly_default_rates,
)
from .grading import (
    GRADES,
    GradeCalibration,
    GradeConfusion,
    assign_grade,
    assign_grades,
    calibrate,
    grade_confusion,
    load_fixed_intervals,
)
from .metrics import EvalReport, evaluate, roc_auc
from .models import (
    AdaBoostParams,
    GBTParams,
    LRParams,
    RFParams,
    classify,
    fit,
    load_model,
    predict_proba,
    save_model,
)
from .pipeline import RunConfig, StageError, format_report, run_pipeline
from .shapley import (
    AttributionConfig,
    AttributionReport,
    global_importance,
    group_countries,
    sample_background,
    shapley_values,
    value_function,
)
from .smote import SmoteConfig, SmoteResult, resample
from .synthgen import (
    GenerationError,
    GeneratorConfig,
    SynthOracle,
    generate_statements,
    oracle_reference_grades,
)
