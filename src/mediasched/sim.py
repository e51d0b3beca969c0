"""Closed-loop episode simulation and Monte Carlo evaluation.

An episode replays one sampled channel path. Every slot the policy is shown
the current joint state and names an ordered batch; the sender pays for
every attempt, each attempted packet then survives an independent loss draw,
and only survivors leave the pending set. Nothing is refunded on loss and a
lost packet may be retried while its window is open.

Utility matches the planning objective: discounted distortion weight of
every delivered packet whose ancestors were all delivered too, minus the
discounted, lambda-weighted transmission costs actually paid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, CostModel, averaged_channel, sample_path
from .media import MediaTrace, ancestors
from .solver import (
    DecomposedPolicy, JointState, SolvedPolicy, _advance, _index_for, solve, solve_convex
)


@dataclass(frozen=True)
class SlotLog:
    t: int
    channel: int
    attempted: tuple[int, ...]
    delivered: tuple[int, ...]
    cost: float


@dataclass(eq=False)
class EpisodeResult:
    utility: float
    distortion_gain: float
    cost: float  # discounted sum of per-slot transmission costs, unweighted
    delivered: frozenset[int]
    decodable: frozenset[int]
    log: tuple[SlotLog, ...]

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)


def run_episode(
    policy,
    trace: MediaTrace,
    channel: ChannelModel,
    channel_path,
    cost: CostModel,
    alpha: float,
    lam: float,
    loss_rate: float = 0.0,
    seed: int | None = None,
) -> EpisodeResult:
    idx = _index_for(trace)
    hz = idx.horizon
    if len(channel_path) < hz + 1:
        raise ValueError("channel path shorter than the trace horizon")
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must lie in [0, 1)")
    rng = np.random.default_rng(seed) if loss_rate > 0.0 else None

    state = JointState(0, trace.live(0), (), channel_path[0])
    delivered_slot: dict[int, int] = {}
    log = []
    total_cost = 0.0
    for t in range(hz + 1):
        pending, dmask = idx.state_masks(state)
        attempted = policy.decide(state)
        attempt_mask = idx.mask_of(attempted)
        if attempt_mask & ~pending:
            raise ValueError(f"{policy.name} attempted packets outside pending")
        slot_cost = idx.batch_cost(attempt_mask, channel.states[state.channel], cost)
        total_cost += alpha**t * slot_cost
        if rng is None:
            got = list(attempted)
        else:
            got = [pid for pid in attempted if rng.random() >= loss_rate]
        for pid in got:
            delivered_slot[pid] = t
        log.append(SlotLog(t, state.channel, tuple(attempted), tuple(got), slot_cost))
        if t < hz:
            state = _advance(idx, t, pending, dmask, idx.mask_of(got), channel_path[t + 1])

    decodable = {
        pid
        for pid in delivered_slot
        if all(a in delivered_slot for a in ancestors(trace, pid))
    }
    gain = sum(alpha ** delivered_slot[pid] * trace.by_id[pid].distortion for pid in decodable)
    return EpisodeResult(
        utility=gain - lam * total_cost,
        distortion_gain=gain,
        cost=total_cost,
        delivered=frozenset(delivered_slot),
        decodable=frozenset(decodable),
        log=tuple(log),
    )


@dataclass(eq=False)
class SimReport:
    name: str
    utilities: np.ndarray
    gains: np.ndarray
    costs: np.ndarray
    delivered_counts: np.ndarray

    @property
    def mean_utility(self) -> float:
        return float(self.utilities.mean())

    @property
    def std_utility(self) -> float:
        return float(self.utilities.std(ddof=1))

    @property
    def stderr_utility(self) -> float:
        return self.std_utility / float(np.sqrt(len(self.utilities)))


def monte_carlo(
    policies,
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
    episodes: int,
    loss_rate: float = 0.0,
    seed: int = 0,
) -> dict[str, SimReport]:
    """Paired evaluation: every policy sees the same paths and loss seeds."""
    if episodes < 2:
        raise ValueError("episodes must be at least 2 for a sample std")
    acc = {p.name: ([], [], [], []) for p in policies}
    hz = trace.horizon
    for i in range(episodes):
        path = sample_path(channel, hz, seed=seed + i)
        for pol in policies:
            res = run_episode(
                pol,
                trace,
                channel,
                path,
                cost,
                alpha,
                lam,
                loss_rate=loss_rate,
                seed=seed * 1_000_003 + i,
            )
            u, g, c, d = acc[pol.name]
            u.append(res.utility)
            g.append(res.distortion_gain)
            c.append(res.cost)
            d.append(res.delivered_count)
    return {
        name: SimReport(
            name=name,
            utilities=np.array(u),
            gains=np.array(g),
            costs=np.array(c),
            delivered_counts=np.array(d),
        )
        for name, (u, g, c, d) in acc.items()
    }


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def baseline_myopic(
    trace: MediaTrace, channel: ChannelModel, cost: CostModel, lam: float
) -> SolvedPolicy:
    """Zero lookahead: the same slot rule with all continuation values at zero."""
    pol = solve_convex(
        trace, channel, cost, 0.0, lam, interdependent=trace.has_dependencies
    )
    pol.name = "myopic"
    return pol


@dataclass(eq=False)
class DistortionGreedyPolicy:
    """Sort currently decodable pending packets by weight, send while profitable.

    Ignores deadlines, channel dynamics and same-slot dependency chains; a
    packet is a candidate only once all its parents are already delivered.
    """

    trace: MediaTrace
    channel: ChannelModel
    cost: CostModel
    lam: float
    name: str = "greedy"

    def decide(self, state: JointState) -> list[int]:
        idx = _index_for(self.trace)
        pending, dmask = idx.state_masks(state)
        sched = idx.schedulable(state.t, pending, dmask)
        cands = [
            i for i in range(idx.n)
            if sched >> i & 1 and not idx.parent_mask[i] & pending
        ]
        cands.sort(key=lambda i: (-idx.q[i], idx.ids[i]))
        st = self.channel.states[state.channel]
        out = []
        for k, i in enumerate(cands, start=1):
            if idx.q[i] - self.lam * idx.packet_marginal(k, i, st, self.cost) > 0.0:
                out.append(idx.ids[i])
            else:
                break
        return out


def baseline_distortion_greedy(
    trace: MediaTrace, channel: ChannelModel, cost: CostModel, lam: float
) -> DistortionGreedyPolicy:
    return DistortionGreedyPolicy(trace, channel, cost, lam)


@dataclass(eq=False)
class ConstantChannelPolicy:
    """Plan against the stationary average channel, ignore observed states."""

    inner: DecomposedPolicy | SolvedPolicy
    name: str = "constant"

    def decide(self, state: JointState) -> list[int]:
        return self.inner.decide(
            JointState(state.t, state.pending, state.deps, 0)
        )


def baseline_constant_channel(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> ConstantChannelPolicy:
    avg = averaged_channel(channel)
    return ConstantChannelPolicy(inner=solve(trace, avg, cost, alpha, lam))
