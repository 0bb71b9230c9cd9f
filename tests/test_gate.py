import numpy as np
import pytest

from coopaug import (AGENT_TYPES, Agent, CooperativeGroup, CountDistribution,
                     GateChoice, RigidTransform, RngStream,
                     TABLE_DISTRIBUTIONS, apply_gate, comprehensive_from_tables, gate,
                     gate_responses, gate_step, sample_gate, validate_group)

from clouds import from_arrays


def agent(aid, is_ego=False, x=0.0):
    return Agent(id=aid, pose=RigidTransform.from_ypr(0.0, translation=(x, 0, 0)),
                 cloud=from_arrays([[x, 0.0, 0.0]]),
                 agent_type=AGENT_TYPES["A"], is_ego=is_ego)


def responses_at(monkeypatch, epsilons, phi_s, phi_c, n_s):
    """gate_responses(phi_s, phi_c, n_s) with gate.EPSILON set to each value."""
    responses = []
    for epsilon in epsilons:
        monkeypatch.setattr(gate, "EPSILON", epsilon)
        responses.append(gate_responses(phi_s, phi_c, n_s))
    return responses


class TestComprehensiveDistribution:
    def test_table_mean(self):
        # the exact floats of the four-table mean, so a refactor keeps every bit
        d = comprehensive_from_tables()
        assert {k: p.hex() for k, p in d.pmf.items()} == {
            1: "0x1.95b573eab367ap-4", 2: "0x1.57a0f9096bb99p-1",
            3: "0x1.31c432ca57a78p-3", 4: "0x1.2f34d6a161e50p-4",
            5: "0x1.a858793dd97f6p-8"}
        assert list(d.pmf) == [1, 2, 3, 4, 5]
        assert d.pmf == pytest.approx(
            {1: 0.09905, 2: 0.67115, 3: 0.1493, 4: 0.074025, 5: 0.006475}, abs=1e-9)
        assert sum(d.pmf.values()) == pytest.approx(1.0, abs=1e-12)


class TestGateResponses:
    def test_opv2v_n2_hand_values(self):
        resp = gate_responses(TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(), 2)
        assert resp.r_plus == 0.0
        assert resp.r_minus == pytest.approx((0.09905 - 0.0787) / 0.0787, abs=1e-9)
        lp, lk, lm = resp.likelihoods
        assert (lp, lk, lm) == pytest.approx((0.0, 0.7945, 0.2055), abs=1e-3)

    def test_v2v4real_epsilon_path(self, monkeypatch):
        # N=3 is outside v2v4real's support: the response is the share of
        # phi_s(2) that would fill phi_c(3), not a multiple of 1 / epsilon.
        phi_s, phi_c = TABLE_DISTRIBUTIONS["v2v4real"], comprehensive_from_tables()
        resp, resp_1e3 = responses_at(monkeypatch, (1e-6, 1e-3), phi_s, phi_c, 2)
        assert resp.r_plus == pytest.approx(0.1493 / 0.9020, rel=1e-9)
        assert 0.0 < resp.likelihoods[0] < 1.0
        assert resp == resp_1e3

    def test_unseen_counts_bounded_and_epsilon_free(self, monkeypatch):
        phi_c = comprehensive_from_tables()
        for name in ("v2v4real", "dairv2x"):
            phi_s = TABLE_DISTRIBUTIONS[name]
            for n in range(1, 7):
                a, b, c = responses_at(monkeypatch, (1e-9, 1e-6, 1e-3), phi_s, phi_c, n)
                assert a == b == c, (name, n)
                for k, r in ((n + 1, b.r_plus), (n - 1, b.r_minus)):
                    if k >= 1 and phi_s.prob(k) == 0.0:
                        assert 0.0 <= r <= 1.0, (name, n, k)

    def test_matched_source_never_perturbed(self):
        d = TABLE_DISTRIBUTIONS["opv2v"]
        for n in (1, 2, 3, 4, 5):
            resp = gate_responses(d, d, n)
            assert resp.r_plus == 0.0 and resp.r_minus == 0.0
            assert resp.likelihoods == (0.0, 1.0, 0.0)

    def test_count_zero_is_zero(self):
        # every table, and a pmf without count 1, so phi_s(n_s) is 0 as well
        for phi_s in (*TABLE_DISTRIBUTIONS.values(), CountDistribution({2: 0.5, 3: 0.5})):
            resp = gate_responses(phi_s, comprehensive_from_tables(), 1)
            assert resp.r_minus == 0.0, phi_s

    @pytest.mark.parametrize("n_s", [0, -1])
    def test_group_size_below_one(self, n_s):
        with pytest.raises(ValueError, match="group size must be >= 1"):
            gate_responses(TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(), n_s)

    def test_epsilon_scale_only_matters_below_support(self, monkeypatch):
        phi_s, phi_c = TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables()
        for n in (1, 2, 3, 4):
            a, b = responses_at(monkeypatch, (1e-6, 1e-5), phi_s, phi_c, n)
            assert (a.r_plus, a.r_minus) == (b.r_plus, b.r_minus)

    def test_likelihoods_sum_and_keep_positive(self):
        phi_s, phi_c = TABLE_DISTRIBUTIONS["v2v4real"], comprehensive_from_tables()
        for n in (1, 2, 3):
            like = gate_responses(phi_s, phi_c, n).likelihoods
            assert sum(like) == pytest.approx(1.0, abs=1e-12)
            assert like[1] > 0.0


class TestSampleGate:
    def test_degenerate_plus(self):
        from coopaug.gate import GateResponses
        resp = GateResponses(1e12, 0.0)
        rng = RngStream(0, "g")
        assert all(sample_gate(resp, rng) is GateChoice.PLUS for _ in range(100))

    def test_degenerate_keep(self):
        from coopaug.gate import GateResponses
        resp = GateResponses(0.0, 0.0)
        rng = RngStream(0, "g")
        assert all(sample_gate(resp, rng) is GateChoice.KEEP for _ in range(100))

    def test_monte_carlo_minus_frequency(self):
        resp = gate_responses(TABLE_DISTRIBUTIONS["opv2v"], comprehensive_from_tables(), 2)
        lm = resp.likelihoods[2]
        rng = RngStream(123, "mc")
        n = 1_000_000
        u = rng.uniform(size=n)
        lp, lk, _ = resp.likelihoods
        minus = (u >= lp + lk).sum()
        assert minus / n == pytest.approx(lm, abs=2e-3)
        assert lm == pytest.approx(0.2055, abs=1e-3)


class TestGateStep:
    PHI_C = comprehensive_from_tables()

    def test_matched_source_never_moves(self):
        assert gate_step(self.PHI_C, self.PHI_C) == self.PHI_C

    def test_single_count_follows_likelihoods(self):
        phi_s = CountDistribution({2: 1.0})
        lp, lk, lm = gate_responses(phi_s, self.PHI_C, 2).likelihoods
        assert gate_step(phi_s, self.PHI_C).pmf == {1: lm, 2: lk, 3: lp}

    @pytest.mark.parametrize("name, tv", [("opv2v", 0.190), ("v2xset", 0.114),
                                          ("v2v4real", 0.103), ("dairv2x", 0.109)])
    def test_step_one_distance_to_target(self, name, tv):
        # the step-1 column of a transition-matrix chain built apart from gate_step
        post = gate_step(TABLE_DISTRIBUTIONS[name], self.PHI_C)
        assert round(post.tv_distance(self.PHI_C), 3) == tv

    def test_agrees_with_sample_gate(self):
        phi_s = TABLE_DISTRIBUTIONS["v2xset"]
        rng = RngStream(3, "step")
        step = {GateChoice.PLUS: 1, GateChoice.KEEP: 0, GateChoice.MINUS: -1}
        drawn: dict[int, float] = {}
        for n in sorted(phi_s.pmf):
            resp = gate_responses(phi_s, self.PHI_C, n)
            for _ in range(20_000):
                k = n + step[sample_gate(resp, rng)]
                drawn[k] = drawn.get(k, 0.0) + phi_s.pmf[n] / 20_000
        post = gate_step(phi_s, self.PHI_C)
        assert set(drawn) == set(post.pmf)
        assert drawn == pytest.approx(post.pmf, abs=0.01)


class TestApplyGate:
    def group3(self):
        return CooperativeGroup((agent("e", is_ego=True), agent("a", x=3.0),
                                 agent("b", x=6.0)))

    def mixup(self):
        return agent("mixup-0", x=4.5)

    def test_plus_appends(self):
        g = self.group3()
        out = apply_gate(g, self.mixup(), (1, 2), GateChoice.PLUS)
        assert out.n == 4
        assert out.agents[:3] == g.agents
        assert validate_group(out) is None

    def test_minus_non_ego_pair(self):
        out = apply_gate(self.group3(), self.mixup(), (1, 2), GateChoice.MINUS)
        assert out.n == 2
        assert sum(a.is_ego for a in out.agents) == 1
        assert validate_group(out) is None

    def test_minus_with_ego_in_pair_transfers_ego(self):
        g = CooperativeGroup((agent("e", is_ego=True), agent("a", x=3.0)))
        out = apply_gate(g, self.mixup(), (0, 1), GateChoice.MINUS)
        assert out.n == 1
        assert out.agents[0].is_ego
        assert np.array_equal(out.agents[0].pose.translation,
                              g.agents[0].pose.translation)
        assert validate_group(out) is None

    def test_keep_replaces_second_index(self):
        g = self.group3()
        out = apply_gate(g, self.mixup(), (1, 2), GateChoice.KEEP)
        assert out.n == 3
        assert out.agents[2].id == "mixup-0"
        assert out.agents[1] == g.agents[1]

    def test_keep_never_replaces_ego(self):
        g = self.group3()
        out = apply_gate(g, self.mixup(), (1, 0), GateChoice.KEEP)
        assert out.agents[0].is_ego
        assert out.agents[1].id == "mixup-0"

    def test_invalid_pair(self):
        with pytest.raises(ValueError, match=r"bad pair \(1, 1\)"):
            apply_gate(self.group3(), self.mixup(), (1, 1), GateChoice.PLUS)
        with pytest.raises(ValueError, match=r"bad pair \(0, 9\)"):
            apply_gate(self.group3(), self.mixup(), (0, 9), GateChoice.PLUS)
        ego_mixup = agent("mixup-0", is_ego=True, x=4.5)
        with pytest.raises(ValueError, match="must not be pre-marked as ego"):
            apply_gate(self.group3(), ego_mixup, (1, 2), GateChoice.PLUS)

    def test_count_matches_decision(self):
        g = self.group3()
        for decision, expected in ((GateChoice.PLUS, 4), (GateChoice.KEEP, 3),
                                   (GateChoice.MINUS, 2)):
            assert apply_gate(g, self.mixup(), (1, 2), decision).n == expected
