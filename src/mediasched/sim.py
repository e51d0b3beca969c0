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
from itertools import repeat

import numpy as np

from .channel import ChannelModel, CostModel, _uniform_rows, averaged_channel, path_sampler
from .media import MediaTrace
from .single_packet import _check_inputs
from .solver import DecomposedPolicy, SolvedPolicy, _Decider, _index_for, solve, solve_convex


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
    if not all(0 <= h < channel.n_states for h in channel_path[:idx.horizon + 1]):
        raise ValueError(f"channel path leaves the channel's states 0..{channel.n_states - 1}")
    if len(channel_path) < idx.horizon + 1:
        raise ValueError("channel path shorter than the trace horizon")
    _check_episode_args(channel, alpha, lam, loss_rate)
    log: list[SlotLog] = []
    losses = _LossDraws(seed) if loss_rate > 0.0 else None
    powers = [alpha**t for t in range(idx.horizon + 1)]
    gain, total_cost, delivered, decodable = _episode(
        policy, idx, trace, channel, channel_path, cost, powers, loss_rate, losses,
        *_memo(idx, channel, cost), log)
    return EpisodeResult(
        utility=gain - lam * total_cost,
        distortion_gain=gain,
        cost=total_cost,
        delivered=frozenset(delivered),
        decodable=frozenset(decodable),
        log=tuple(log),
    )


def _memo(idx, channel, cost):
    """The index's prices and slot memo for this channel and cost, alive with it (see _episode)."""
    fresh = [{} for _ in channel.states], {}
    return idx.episode_memos.setdefault((channel.states, cost), fresh)


def _check_episode_args(channel, alpha, lam, loss_rate):
    """The rules every episode of a run_episode or monte_carlo call shares."""
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must lie in [0, 1)")
    _check_inputs(channel, alpha, lam)


# Loss uniforms come this many at a time (a standard-scenario episode attempts
# at most 11 packets); Generator.random takes one 64-bit output per double.
_LOSS_BLOCK = 16


class _LossDraws(list):
    """The uniforms of default_rng(seed) in one list, which every episode
    reading it indexes from 0 and which grows a block at a time. A first
    block handed in comes from _uniform_rows; past it, a generator is
    seeded and advanced over it."""

    def __init__(self, seed, first=None):
        super().__init__(first or ())
        self.seed = seed
        self.rng = np.random.default_rng(seed) if first is None else None

    def extend_to(self, k: int) -> None:
        while len(self) < k:
            self.rng = self.rng or np.random.Generator(np.random.PCG64(self.seed).advance(len(self)))
            self.extend(self.rng.random(_LOSS_BLOCK).tolist())


def _episode(policy, idx, trace, channel, path, cost, powers, loss_rate, losses, prices, slots,
             log=None):
    """One checked episode: its gain, discounted cost, delivery slot per
    delivered id and decodable ids. powers[t] is alpha**t; losses is the
    episode's _LossDraws, None without loss. prices[h] (batch_cost per mask
    in channel state h) and slots live on the index, keyed by channel states
    and cost (_memo): every policy, call and run_episode shares them while
    the index lives, with at most one slot per interned state. A SlotLog per
    slot goes to log when one is given."""
    pending, dmask = idx.live_mask[0], 0
    delivered, delivered_slot = 0, {}
    total_cost, read = 0.0, 0
    for t, h in enumerate(path[:idx.horizon + 1]):
        # slots: (t, pending, record, h) -> the interned state and, per
        # emission any policy gave in it, its mask and cost and the masks of
        # slot t + 1 when nothing is lost. decide still sees every slot; an
        # answer not remembered is checked and priced anew.
        key = (t, pending, dmask, h)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = idx.joint_state(*key), {}
        state, answers = slot
        attempted = tuple(policy.decide(state))
        hit = answers.get(attempted)
        if hit is None:
            tx = idx.mask_of(attempted)
            if tx & ~pending:
                raise ValueError(f"{policy.name} attempted packets outside pending")
            slot_cost = prices[h].get(tx)
            if slot_cost is None:
                slot_cost = prices[h][tx] = idx.batch_cost(tx, channel.states[h], cost)
            hit = answers[attempted] = tx, slot_cost, idx.step(t, pending, dmask, tx)
        tx, slot_cost, nxt = hit
        total_cost += powers[t] * slot_cost
        got = attempted
        if losses is not None and attempted:
            # One uniform per attempted packet, in emission order.
            end = read + len(attempted)
            if end > len(losses):
                losses.extend_to(end)
            if min(losses[read:end]) < loss_rate:
                got = tuple(pid for pid, u in zip(attempted, losses[read:end]) if u >= loss_rate)
                tx = idx.mask_of(got)
                nxt = idx.step(t, pending, dmask, tx)
            read = end
        delivered |= tx
        for pid in got:
            delivered_slot[pid] = t
        if log is not None:
            log.append(SlotLog(t, h, attempted, got, slot_cost))
        pending, dmask = nxt

    # A packet decodes once it and all its ancestors were delivered.
    anc = trace.ancestor_masks
    decodable = {pid for pid in delivered_slot if not anc[idx.pos[pid]] & ~delivered}
    gain = sum(powers[delivered_slot[pid]] * trace.by_id[pid].distortion for pid in decodable)
    return gain, total_cost, delivered_slot, decodable


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
    if len(acc) < len(policies):
        raise ValueError("policy names must be distinct, as the reports are keyed by name")
    idx = _index_for(trace)
    _check_episode_args(channel, alpha, lam, loss_rate)
    powers = [alpha**t for t in range(idx.horizon + 1)]
    prices, slots = _memo(idx, channel, cost)
    # Episode i reads the streams of default_rng(seed + i) for its path and
    # default_rng(seed * 1_000_003 + i) for its losses, which all policies share.
    loss_seed = seed * 1_000_003
    paths = path_sampler(channel)(idx.horizon, range(seed, seed + episodes))
    firsts = (_uniform_rows(range(loss_seed, loss_seed + episodes), _LOSS_BLOCK)
              if loss_rate > 0.0 else repeat(None))
    for i, path, first in zip(range(episodes), paths, firsts):
        losses = _LossDraws(loss_seed + i, first) if loss_rate > 0.0 else None
        for pol in policies:
            gain, total_cost, delivered, _ = _episode(
                pol, idx, trace, channel, path, cost, powers, loss_rate, losses, prices, slots)
            u, g, c, d = acc[pol.name]
            u.append(gain - lam * total_cost)
            g.append(gain)
            c.append(total_cost)
            d.append(len(delivered))
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
    pol = solve_convex(trace, channel, cost, 0.0, lam)
    pol.name = "myopic"
    return pol


@dataclass(eq=False)
class DistortionGreedyPolicy(_Decider):
    """Sort currently decodable pending packets by weight, send while profitable.

    Ignores deadlines, channel dynamics and same-slot dependency chains; a
    packet is a candidate only once all its parents are already delivered.
    A packet's price is what it adds to the batch taken so far under a
    convex cost, and its own cost under a linear one.
    """

    trace: MediaTrace
    channel: ChannelModel
    cost: CostModel
    lam: float
    name: str = "greedy"

    def __post_init__(self):
        _check_inputs(self.channel, 0.0, self.lam)  # greedy has no discount
        self.idx = _index_for(self.trace)

    def _act(self, t: int, pending: int, dmask: int, h: int) -> tuple[int, ...]:
        idx = self.idx
        sched = idx.schedulable(t, pending, dmask)
        cands = [
            i for i in range(idx.n)
            if sched >> i & 1 and not idx.parent_mask[i] & pending
        ]
        cands.sort(key=lambda i: (-idx.q[i], idx.ids[i]))
        st, cost = self.channel.states[h], self.cost
        out, sent = [], 0
        for i in cands:
            base = sent if cost.kind == "convex" else 0
            extra = idx.batch_cost(base | 1 << i, st, cost) - idx.batch_cost(base, st, cost)
            if idx.q[i] - self.lam * extra > 0.0:
                out.append(idx.ids[i])
                sent |= 1 << i
            else:
                break
        return tuple(out)


def baseline_distortion_greedy(
    trace: MediaTrace, channel: ChannelModel, cost: CostModel, lam: float
) -> DistortionGreedyPolicy:
    return DistortionGreedyPolicy(trace, channel, cost, lam)


@dataclass(eq=False)
class ConstantChannelPolicy(_Decider):
    """Plan against the stationary average channel, ignore observed states.

    channel is the observed channel: decide refuses a state outside it, as
    every policy does, then answers the inner plan's channel-0 emission.
    """

    inner: DecomposedPolicy | SolvedPolicy
    channel: ChannelModel
    name: str = "constant"

    def __post_init__(self):
        self.idx = self.inner.idx

    def _act(self, t: int, pending: int, dmask: int, h: int) -> tuple[int, ...]:
        return self.inner._act(t, pending, dmask, 0)


def baseline_constant_channel(
    trace: MediaTrace,
    channel: ChannelModel,
    cost: CostModel,
    alpha: float,
    lam: float,
) -> ConstantChannelPolicy:
    avg = averaged_channel(channel)
    return ConstantChannelPolicy(inner=solve(trace, avg, cost, alpha, lam), channel=channel)
