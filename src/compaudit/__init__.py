"""Desk-scale membership-leakage auditing for compressed classifiers.

Train a dense classifier, derive compressed variants (magnitude pruning,
int8 quantization, weight clustering), run single-model, paired-reference,
and multi-reference membership attacks against them, and report balanced
accuracy, AUC, and TPR at low FPR. All computations are seeded and
deterministic.
"""

__version__ = "0.1.0"

from .attacks import (
    ADV1,
    ADV2,
    MrInput,
    SrConstruction,
    build_nr_metadata,
    build_sr_metadata,
    calibrate_threshold,
    modified_entropy,
    mr_loss_concat,
    mr_posterior_concat,
    nr_metric_loss,
    nr_metric_modified_entropy,
    run_mr,
    run_nr_metric,
    run_nr_training,
    run_sr,
)
from .compress import (
    CompressedModel,
    cluster_weights,
    finetune_compressed,
    kmeans_1d,
    prune_l1,
    quantize_int8,
)
from .constraints import CompressionConstraint, check_constraint
from .data import (
    CsvSchema,
    FinetunePlan,
    SplitPlan,
    SplitSizes,
    TabularDataset,
    load_csv,
    make_finetune_split,
    make_split,
    synth_generate,
)
from .meta import fit, predict, score_proba
from .metrics import (
    AttackScoreSet,
    RocCurve,
    balanced_accuracy,
    kl_divergence,
    roc_auc,
    roc_curve,
    tpr_at_fpr,
)
from .nn import (
    DpConfig,
    FcnModel,
    TrainConfig,
    cross_entropy_loss,
    forward,
    init_fcn,
    one_hot,
    train,
    train_dpsgd,
)
