"""Task-supervised windowing of time-stamped edge streams.

Segment a dynamic network's edge stream into windows, score candidate window
sizes by how well downstream tasks (link prediction, attribute prediction,
change-point detection) perform, and select sizes offline or online against
structural baselines.
"""
from .attrpred import (
    AttributeModel,
    KernelParams,
    default_batch_size,
    edge_weight,
    fit_model,
    leave_out_auc,
    leave_out_scores,
    predict_attribute,
    roc_auc,
)
from .changepoint import (
    DetectionResult,
    binary_entropy,
    cp_pr_auc,
    detect_change_points,
    log_star,
    segment_cost,
)
from .harness import (
    OFFLINE_SELECTORS,
    ONLINE_SELECTORS,
    TASKS,
    CellResult,
    CurveSet,
    EvalParams,
    ExperimentReport,
    IntervalPlan,
    choose_test_windowing,
    cross_task_matrix,
    derive_seed,
    hyperparam_sweep,
    run_offline,
    run_online,
    run_suite,
    score_curves,
    spearman,
    spearman_table,
    split_intervals,
    stability_curve,
    stability_diff,
)
from .linkpred import (
    KatzParams,
    average_precision,
    katz_matrix,
    katz_scores,
    online_step_score,
)
from .selectors import (
    OfflineSelection,
    OnlineWindowSelector,
    ScoreLedger,
    SelectorParams,
    StepRecord,
    adage_select,
    attr_split_window_quality,
    attr_window_quality,
    cp_window_quality,
    entropy_select,
    fourier_select,
    graph_entropy,
    jaccard_select,
    linkpred_window_quality,
    powerlaw_exponent,
    random_windowing,
    supervised_offline_select,
)
from .temporal import (
    ChangePointLabels,
    DataFormatError,
    EdgeEvent,
    GraphSequence,
    LoadedArchive,
    ParsedStream,
    StaticGraph,
    VertexAttributes,
    bin_initial,
    load_archive,
    load_attributes,
    load_change_points,
    parse_edge_stream,
    save_archive,
    union_graphs,
)
from .windows import (
    WindowedSequence,
    Windowing,
    apply_windowing,
    last_window,
    uniform_windowing,
    windowed_at,
)

__version__ = "0.1.0"
