"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest auditbench -q
"""

import numpy as np
import pytest

import oracles
import tracing
from workloads import WORKLOADS

MEMBER = [0.9, 0.8, 0.3]
NONMEMBER = [0.85, 0.2, 0.1, 0.05]


def test_balanced_accuracy_counts_ties_as_member():
    assert oracles.balanced_accuracy([0.5, 0.4], [0.5, 0.1], 0.5) == pytest.approx(0.5)
    assert oracles.balanced_accuracy(MEMBER, NONMEMBER, 0.25) == pytest.approx(0.5 * (1 + 0.75))


def test_pairwise_auc_gives_ties_half_credit():
    # pairs: 0.9>0.5, 0.9>0.1, 0.5=0.5, 0.5>0.1
    assert oracles.pairwise_auc([0.9, 0.5], [0.5, 0.1]) == pytest.approx(3.5 / 4)
    assert oracles.pairwise_auc([0.1], [0.9]) == 0.0


def test_tpr_scan_never_exceeds_the_cap():
    assert oracles.tpr_at_fpr_scan(MEMBER, NONMEMBER, 0.0) == pytest.approx(1 / 3)
    assert oracles.tpr_at_fpr_scan(MEMBER, NONMEMBER, 0.25) == pytest.approx(1.0)
    assert oracles.tpr_at_fpr_scan(MEMBER, NONMEMBER, 1.0) == 1.0


def _cell(**overrides):
    payload = {"member_scores": MEMBER, "nonmember_scores": NONMEMBER, "decision_threshold": 0.5}
    cell = {
        "attack": "nr_loss", "target": "original", "rep": 0,
        "balanced_accuracy": oracles.balanced_accuracy(MEMBER, NONMEMBER, 0.5),
        "auc": oracles.pairwise_auc(MEMBER, NONMEMBER),
        "tpr_at_fpr": {"0.25": 1.0},
    }
    cell.update(overrides)
    return payload, cell


SIZES = {"victim_train": 3, "victim_test": 4}


def test_check_scores_accepts_a_matching_cell():
    payload, cell = _cell()
    assert oracles.check_scores(payload, cell, ["0.25"], SIZES) == []


@pytest.mark.parametrize("field,value", [("auc", 0.5), ("balanced_accuracy", 0.9),
                                         ("tpr_at_fpr", {"0.25": 2 / 3})])
def test_check_scores_flags_a_wrong_report_value(field, value):
    payload, cell = _cell(**{field: value})
    assert len(oracles.check_scores(payload, cell, ["0.25"], SIZES)) == 1


def test_check_scores_flags_counts_and_range():
    payload, cell = _cell()
    assert oracles.check_scores(payload, cell, [], {"victim_train": 4, "victim_test": 4})
    payload["member_scores"] = [0.9, 0.8, 1.5]
    assert oracles.check_scores(payload, cell, [], SIZES)


def test_prune_rule_counts_zeros_over_all_matrices():
    w = [[[0.0, 0.0], [1.0, 2.0]], [[0.0, 3.0]]]
    assert oracles.check_compression(w, "prune", 0.5) == []   # 3 zeros of 6
    assert oracles.check_compression(w, "prune", 0.7) != []   # needs 4


def test_cluster_rule_counts_distinct_values_per_matrix():
    w = [[[0.5, 0.5], [-0.5, 0.0]]]
    assert oracles.check_compression(w, "cluster", 3) == []
    assert oracles.check_compression(w, "cluster", 2) != []


def test_int8_rule_needs_every_weight_on_the_grid():
    step = 2.54 / 127
    on_grid = [[[2.54, -3 * step], [0.0, 100 * step]]]
    assert oracles.check_compression(on_grid, "int8", None) == []
    off_grid = [[[2.54, -3.5 * step], [0.0, 100 * step]]]
    assert oracles.check_compression(off_grid, "int8", None) != []


def test_forward_pass_by_hand():
    # hidden = relu([x0 - x1, x1 - x0]); logits = [h0, h1]
    weights = [[[1.0, -1.0], [-1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    biases = [[0.0, 0.0], [0.0, 0.0]]
    X = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert oracles.predict(weights, biases, X).tolist() == [0, 1]
    model = {"weights": weights, "biases": biases}
    assert oracles.accuracy(model, X, np.array([0, 0])) == 0.5


def test_sr_beats_nr_property():
    aucs = {"sr_x_rf__prune85": 0.9, "nr_loss__prune85": 0.8, "nr_loss__original": 0.95}
    assert oracles.check_sr_beats_nr(aucs, "prune85") == []
    aucs["nr_mentr__prune85"] = 0.91
    assert oracles.check_sr_beats_nr(aucs, "prune85") != []


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_layer_self_times_and_remainder_add_up_to_the_wall():
    spans = [["pipeline.attack", 0.5, 9.5, -1], ["meta.fit_rf", 1.0, 7.0, 0],
             ["nn.forward", 7.5, 8.0, 0]]
    layers = tracing.layer_metrics({"spans": spans, "counts": {"meta.fit_rf_trees": 100}}, 10.0)
    assert layers["meta.fit_rf_s"] == pytest.approx(6.0)
    assert layers["pipeline.self_s"] == pytest.approx(2.5)
    assert layers["pipeline.attack_s"] == pytest.approx(9.0)
    assert layers["trace.untraced_s"] == pytest.approx(1.0)
    total = sum(layers[m] for m in tracing.SELF_TIME) + layers["trace.untraced_s"]
    assert total == pytest.approx(10.0)
    assert layers["meta.fit_rf_trees"] == 100 and layers["nn.train_calls"] == 0


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("nn.forward", lambda model, X: len(X), ("nn.forward_rows",
                                                                lambda a, k, r: r))
    outer = tracer.wrap("attacks.runner", lambda: inner(None, [1, 2, 3]) + inner(None, [4]))
    assert outer() == 4
    assert [(s[0], s[3]) for s in tracer.spans] == [("attacks.runner", -1), ("nn.forward", 0),
                                                   ("nn.forward", 0)]
    assert tracer.counts == {"nn.forward_rows": 4}


def test_pool_small_cells_match_the_acceptance_plan():
    pool = WORKLOADS["pool-small"]
    assert len(pool.cells()) == 12
    assert ("mr_adv2", "int8+prune70+prune90") in pool.cells()
    assert "seed = 9\n" in pool.render()
