"""Probabilistic gate: count-distribution matching via Plus/Keep/Minus decisions."""

import enum
from dataclasses import dataclass, replace

from .model import Agent, CooperativeGroup, CountDistribution, RngStream

# Guards the responses against division by zero; not a response scale.
EPSILON = 1e-6
# The keep response; the plus and minus responses are measured against it.
R_KEEP = 1.0

# Agent-count probabilities per source dataset. Counts above the published
# support carry probability 0.
TABLE_DISTRIBUTIONS: dict[str, CountDistribution] = {
    "opv2v": CountDistribution({1: 0.0787, 2: 0.4846, 3: 0.2657, 4: 0.1620, 5: 0.0090}),
    "v2xset": CountDistribution({1: 0.1275, 2: 0.3900, 3: 0.3315, 4: 0.1341, 5: 0.0169}),
    "v2v4real": CountDistribution({1: 0.0980, 2: 0.9020}),
    "dairv2x": CountDistribution({1: 0.0920, 2: 0.9080}),
}


class GateChoice(enum.Enum):
    PLUS = "plus"
    KEEP = "keep"
    MINUS = "minus"


@dataclass(frozen=True)
class GateResponses:
    """Raw plus/minus responses; likelihoods (plus, keep, minus) add R_KEEP."""

    r_plus: float
    r_minus: float

    @property
    def likelihoods(self) -> tuple[float, float, float]:
        total = self.r_plus + R_KEEP + self.r_minus
        return (self.r_plus / total, R_KEEP / total, self.r_minus / total)


def comprehensive_from_tables() -> CountDistribution:
    """phi_c: the mean of the TABLE_DISTRIBUTIONS pmfs, renormalized."""
    tables = TABLE_DISTRIBUTIONS.values()
    keys = sorted(set().union(*(d.pmf for d in tables)))
    pmf = {k: sum(d.prob(k) for d in tables) / len(tables) for k in keys}
    norm = sum(pmf.values())
    return CountDistribution({k: v / norm for k, v in pmf.items()})


def gate_responses(phi_s: CountDistribution, phi_c: CountDistribution,
                   n_s: int) -> GateResponses:
    """Responses for moving the group size toward the comprehensive distribution.

    A neighbor count k that the source under-represents relative to the
    comprehensive distribution draws a positive response; the keep response
    is fixed at R_KEEP. For a count the source has, the response is
    (phi_c(k) - phi_s(k)) / phi_s(k). For a count the source never has
    (phi_s(k) = 0) it is min(1, phi_c(k) / phi_s(n_s)): the share of the
    current count's source mass that would fill k, capped at the keep
    response, so a single step cannot overshoot into an empty count.
    EPSILON only guards division by zero, for source probabilities below it
    (an unseen current count n_s included); it is not a response scale.
    A pmf holds no count below 1, so the response for count 0 is 0.
    """
    if n_s < 1:
        raise ValueError("group size must be >= 1")

    def resp(count: int) -> float:
        p_s = phi_s.prob(count)
        if p_s == 0.0:
            return min(R_KEEP, phi_c.prob(count) / max(phi_s.prob(n_s), EPSILON))
        return max(0.0, (phi_c.prob(count) - p_s) / max(p_s, EPSILON))

    return GateResponses(r_plus=resp(n_s + 1), r_minus=resp(n_s - 1))


def sample_gate(responses: GateResponses, rng: RngStream) -> GateChoice:
    """Categorical draw over (plus, keep, minus) with the normalized likelihoods."""
    lp, lk, _ = responses.likelihoods
    u = rng.uniform()
    if u < lp:
        return GateChoice.PLUS
    return GateChoice.KEEP if u < lp + lk else GateChoice.MINUS


def gate_step(phi_s: CountDistribution, phi_c: CountDistribution) -> CountDistribution:
    """The group-size pmf after one gate decision on sizes drawn from phi_s.

    The exact push-forward of sample_gate: each count n's mass moves to n + 1,
    n and n - 1 in the proportions of its (plus, keep, minus) likelihoods.
    """
    post: dict[int, float] = {}
    for n, mass in phi_s.pmf.items():
        for step, lik in zip((1, 0, -1), gate_responses(phi_s, phi_c, n).likelihoods):
            share = mass * lik
            if share > 0.0:  # so count 0, whose minus likelihood is 0, never appears
                post[n + step] = post.get(n + step, 0.0) + share
    return CountDistribution(post)


def apply_gate(group: CooperativeGroup, mixup: Agent, pair: tuple[int, int],
               decision: GateChoice) -> CooperativeGroup:
    """Apply a gate decision, inserting the mixup agent per the chosen gate.

    Plus appends the mixup agent; Minus removes both pair members and appends
    it (inheriting the ego role and pose if the pair contained the ego); Keep
    replaces the non-ego pair member. The result always has exactly one ego.
    """
    i, j = pair
    if i == j or not (0 <= i < group.n and 0 <= j < group.n):
        raise ValueError(f"bad pair ({i}, {j}) for group of {group.n}")
    if mixup.is_ego:
        raise ValueError("mixup agent must not be pre-marked as ego")

    if decision is GateChoice.PLUS:
        return CooperativeGroup(group.agents + (mixup,))
    if decision is GateChoice.MINUS:
        pair_agents = (group.agents[i], group.agents[j])
        ego_member = next((a for a in pair_agents if a.is_ego), None)
        if ego_member is not None:
            mixup = replace(mixup, is_ego=True, pose=ego_member.pose)
        rest = tuple(a for k, a in enumerate(group.agents) if k not in (i, j))
        return CooperativeGroup(rest + (mixup,))
    agents = list(group.agents)  # KEEP replaces the non-ego pair member
    agents[i if group.agents[j].is_ego else j] = mixup
    return CooperativeGroup(tuple(agents))
