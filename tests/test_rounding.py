"""Region-growing rounding: scores, branch logic, parameter certificates."""

import io
import json

import numpy as np
import pytest

from motifcc.errors import CertificateViolationError, InvalidParameterError
from motifcc.graph import Partition
from motifcc.lpmodel import build_lp2, evaluate_objective
from motifcc.motifs import MixedWeights, MotifWeights, WeightRule, build_table1_weights
from motifcc.rounding import (
    RoundingParams,
    certify,
    recommended_params,
    round_alg1,
    round_alg2,
)

from conftest import edge_scores_alg1


def valid_partition(partition, n):
    seen = sorted(v for c in partition.clusters for v in c)
    return seen == list(range(1, n + 1))


class TestEdgeScores:
    def test_hand_example(self):
        x = {(1, 2, 3): 0.2, (1, 2, 4): 0.6, (1, 3, 4): 1.0, (2, 3, 4): 0.9}
        y = edge_scores_alg1(x, {1, 2, 3, 4}, 1)
        assert y == {2: pytest.approx(0.2), 3: pytest.approx(0.2), 4: pytest.approx(0.6)}

    def test_restricting_s_drops_tuples(self):
        x = {(1, 2, 3): 0.2, (1, 2, 4): 0.6, (1, 3, 4): 1.0, (2, 3, 4): 0.9}
        y = edge_scores_alg1(x, {1, 2, 4}, 1)
        # (1,2,3) and (1,3,4) leave S, so only (1,2,4) scores
        assert y == {2: pytest.approx(0.6), 4: pytest.approx(0.6)}

    def test_pivot_must_be_in_s(self):
        with pytest.raises(InvalidParameterError):
            edge_scores_alg1({(1, 2, 3): 0.5}, {1, 2, 3}, 4)

    def test_s_must_hold_a_tuple(self):
        with pytest.raises(InvalidParameterError):
            edge_scores_alg1({(1, 2, 3): 0.5}, {1, 2}, 1)


class TestRoundAlg1:
    def test_all_zero_gives_one_cluster(self):
        x = {t: 0.0 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        part, trace = round_alg1(x, 4, 3, RoundingParams(1.0 / 3))
        assert set(part.clusters) == {frozenset({1, 2, 3, 4})}
        assert trace.steps[0].branch == "cluster"

    def test_all_one_gives_singletons_plus_leftover(self):
        x = {t: 1.0 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        part, trace = round_alg1(x, 4, 3, RoundingParams(1.0 / 3))
        # pivots 1 and 2 cut loose alone; {3, 4} stay as the leftover cluster
        assert frozenset({1}) in part.clusters and frozenset({2}) in part.clusters
        assert frozenset({3, 4}) in part.clusters
        assert trace.leftover == (3, 4)
        assert trace.leftover_policy == "together"

    def test_leftover_singletons_policy(self):
        x = {t: 1.0 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        part, trace = round_alg1(x, 4, 3, RoundingParams(1.0 / 3), leftover="singletons")
        assert set(part.clusters) == {frozenset({v}) for v in (1, 2, 3, 4)}
        assert trace.leftover_policy == "singletons"

    def test_alpha_above_bound_rejected(self):
        with pytest.raises(InvalidParameterError):
            round_alg1({(1, 2, 3): 0.0}, 3, 3, RoundingParams(0.5))

    def test_random_pivot_rule_is_seeded(self):
        x = {t: 0.4 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        a, _ = round_alg1(x, 4, 3, RoundingParams(1.0 / 3), pivot_rule="random", seed=5)
        b, _ = round_alg1(x, 4, 3, RoundingParams(1.0 / 3), pivot_rule="random", seed=5)
        assert a.clusters == b.clusters
        with pytest.raises(InvalidParameterError):
            round_alg1(x, 4, 3, RoundingParams(1.0 / 3), pivot_rule="typo")

    def test_random_fractional_inputs_partition_everything(self):
        tuples = [(a, b, c) for a in range(1, 7) for b in range(a + 1, 7) for c in range(b + 1, 7)]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = {t: float(rng.uniform(0, 1)) for t in tuples}
            part, trace = round_alg1(x, 6, 3, RoundingParams(1.0 / 3))
            assert valid_partition(part, 6)
            assert trace.steps  # at least one pivot happened


class TestRoundAlg2:
    def pairs(self, n):
        return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]

    def test_all_zero_gives_one_cluster(self):
        z = {p: 0.0 for p in self.pairs(5)}
        part, _ = round_alg2(z, 5, 3, RoundingParams(1.0 / 3, 1.0 / 3))
        assert set(part.clusters) == {frozenset(range(1, 6))}

    def test_all_one_gives_singletons(self):
        z = {p: 1.0 for p in self.pairs(5)}
        part, trace = round_alg2(z, 5, 3, RoundingParams(1.0 / 3, 1.0 / 3), leftover="singletons")
        assert set(part.clusters) == {frozenset({v}) for v in range(1, 6)}
        assert trace.leftover == (4, 5)

    def test_two_blocks_metric(self):
        z = {p: 0.0 if (p[0] <= 3) == (p[1] <= 3) else 1.0 for p in self.pairs(6)}
        part, _ = round_alg2(z, 6, 3, RoundingParams(1.0 / 3, 1.0 / 3))
        assert set(part.clusters) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_beta_required_and_bounded(self):
        z = {p: 0.0 for p in self.pairs(4)}
        with pytest.raises(InvalidParameterError):
            round_alg2(z, 4, 3, RoundingParams(1.0 / 3))
        with pytest.raises(InvalidParameterError):
            round_alg2(z, 4, 3, RoundingParams(1.0 / 3, 0.5))

    def test_beta_bound_widening(self):
        z = {p: 0.0 for p in self.pairs(4)}
        beta = 0.4  # above 1/3, inside a widened bound
        with pytest.raises(InvalidParameterError):
            round_alg2(z, 4, 3, RoundingParams(1.0 / 3, beta))
        part, _ = round_alg2(z, 4, 3, RoundingParams(1.0 / 3, beta), beta_bound=0.45)
        assert valid_partition(part, 4)

    def test_random_metrics_partition_everything(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            z = {p: float(rng.uniform(0, 1)) for p in self.pairs(7)}
            part, _ = round_alg2(z, 7, 3, RoundingParams(1.0 / 3, 1.0 / 3))
            assert valid_partition(part, 7)

    def test_k2_uses_half_thresholds(self):
        z = {(1, 2): 0.1, (1, 3): 0.9, (2, 3): 0.9}
        part, _ = round_alg2(z, 3, 2, RoundingParams(0.5, 0.5))
        assert frozenset({1, 2}) in part.clusters
        assert frozenset({3}) in part.clusters


class TestRecommendedParams:
    def test_tuple_procedure(self):
        rec = recommended_params(3, "mcc-lp1")
        assert rec.algorithm == "alg1"
        assert rec.params.alpha == pytest.approx(1.0 / 3)
        assert rec.ratio == pytest.approx(6.0)

    def test_pair_procedure(self):
        rec = recommended_params(3, "mcc-lp2")
        assert rec.algorithm == "alg2"
        assert rec.params.alpha == pytest.approx(1.0 / 3)
        assert rec.params.beta == pytest.approx(1.0 / 3)
        assert rec.ratio == pytest.approx(9.0)
        assert recommended_params(4, "mmcc").ratio == pytest.approx(16.0)

    def test_edge_motif_mode(self):
        rec = recommended_params(3, "mmcc-edge-motif", lam=0.2, n=34)
        r0 = 1.0 / (1.0 + 0.2 * 34**2)
        assert rec.r0 == pytest.approx(r0)
        assert rec.params.beta == pytest.approx(1.0 / (3.0 - r0))
        assert rec.ratio == pytest.approx(3.0 * (3.0 - r0))
        assert rec.ratio == pytest.approx(8.98708, abs=1e-5)
        assert rec.beta_bound == pytest.approx(rec.params.beta)

    def test_edge_motif_beats_generic_bound(self):
        rec = recommended_params(3, "mmcc-edge-motif", lam=1.0, n=20)
        assert rec.ratio < 9.0  # strictly better than k^2 whenever k > 2

    def test_k2_edge_motif_degenerates_to_k_squared(self):
        rec = recommended_params(2, "mmcc-edge-motif", lam=1.0, n=20)
        assert rec.r0 == pytest.approx(0.0)
        assert rec.ratio == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            recommended_params(1, "mcc-lp1")
        with pytest.raises(InvalidParameterError):
            recommended_params(3, "nonsense")
        with pytest.raises(InvalidParameterError):
            recommended_params(3, "mmcc-edge-motif")  # lam and n missing
        with pytest.raises(InvalidParameterError):
            recommended_params(3, "mmcc-edge-motif", lam=-1.0, n=10)

    def test_mode_spelling_is_forgiving(self):
        assert recommended_params(3, "MCC_LP1").mode == "mcc-lp1"


class TestCertify:
    def weights(self, graph):
        rule = WeightRule({"TriangleK3": 1.0, "PathP3": 0.0, "OtherTriple": 0.0})
        return MixedWeights.single(MotifWeights(3, graph, rule))

    def test_holds_and_reports(self, two_triangle_graph):
        mixed = self.weights(two_triangle_graph)
        part = Partition.singletons(6)  # splits both triangles: cost 2
        cost = evaluate_objective(part, mixed)
        assert cost == pytest.approx(2.0)
        cert = certify(part, cost / 2.0, mixed, ratio=9.0)
        assert cert.cost == pytest.approx(cost)
        assert cert.empirical_ratio == pytest.approx(2.0)
        assert "certified_ratio" in cert.to_json_dict()

    def test_zero_lp_value_has_no_empirical_ratio(self, two_triangle_graph):
        mixed = self.weights(two_triangle_graph)
        part = Partition.from_cluster_list([[1, 2, 3], [4, 5, 6]])
        cert = certify(part, 0.0, mixed, ratio=9.0)
        assert cert.cost == pytest.approx(0.0)
        assert cert.empirical_ratio is None

    def test_violation_raises(self, two_triangle_graph):
        mixed = self.weights(two_triangle_graph)
        bad = Partition.singletons(6)  # splits both triangles: cost 2
        with pytest.raises(CertificateViolationError):
            certify(bad, 0.1, mixed, ratio=1.0)


class TestTrace:
    def test_jsonl_round_trip(self, tmp_path):
        x = {t: 1.0 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        _, trace = round_alg1(x, 4, 3, RoundingParams(1.0 / 3))
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        # far-away scores empty the neighborhood, so the pivot clusters alone
        assert lines[0]["branch"] == "cluster"
        assert lines[0]["pivot"] == 1
        assert lines[0]["cluster"] == [1]
        assert lines[0]["neighborhood"] == []
        assert lines[-1] == {"leftover": [3, 4], "policy": "together"}

    def test_jsonl_goes_to_a_path_object_or_an_open_file(self, tmp_path):
        x = {t: 1.0 for t in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        _, trace = round_alg1(x, 4, 3, RoundingParams(1.0 / 3))
        want = "".join(line + "\n" for line in trace.to_json_lines())
        trace.write_jsonl(tmp_path / "path.jsonl")
        assert (tmp_path / "path.jsonl").read_text(encoding="utf-8") == want
        buf = io.StringIO()
        trace.write_jsonl(buf)
        assert buf.getvalue() == want  # written, and left open

    def test_steps_record_threshold_arithmetic(self):
        z = {(1, 2): 0.2, (1, 3): 0.3, (2, 3): 0.0}
        _, trace = round_alg2(z, 3, 2, RoundingParams(0.5, 0.5))
        step = trace.steps[0]
        assert step.pivot == 1
        assert step.neighborhood == (2, 3)
        assert step.score_sum == pytest.approx(0.5)
        assert step.threshold == pytest.approx(0.5 * 0.5 * 2)


class TestOnLpSolutions:
    def test_lp2_solution_rounds_to_the_optimum(self, two_triangle_graph):
        mixed = build_table1_weights("MCC", two_triangle_graph)
        lp = build_lp2(mixed.layers[0].weights, 6)
        from motifcc.simplex import solve

        result = solve(lp)
        rec = recommended_params(3, "mcc-lp2")
        part, _ = round_alg2(result.solution, 6, 3, rec.params)
        cost = evaluate_objective(part, mixed)
        assert cost <= rec.ratio * result.solution.objective_value + 1e-6
