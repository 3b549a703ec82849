"""Desk-scale membership-leakage auditing for compressed classifiers.

Train a dense classifier, derive compressed variants (magnitude pruning,
int8 quantization, weight clustering), run single-model, paired-reference,
and multi-reference membership attacks against them, and report balanced
accuracy, AUC, and TPR at low FPR. All computations are seeded and
deterministic.

Importing the package sets one BLAS thread unless the environment already
names a count, before numpy loads: a matrix product's last bits can depend
on the thread count, and parallelism comes from ``--workers`` instead.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"
