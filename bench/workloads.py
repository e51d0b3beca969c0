"""Seeded inputs of the benchmark workloads.

Every workload runs the same pipeline: cold plans of fresh-valued copies of
its trace, interleaved with Monte Carlo calls of the proposed policy. What
differs is the input, the loss rate and how the measured seconds are split
between the two. Everything random is drawn from the seed.

Each timed plan uses a trace the process has not planned before, because
the solver caches its trace index by trace value. All distortions are
scaled by a factor just above the previous one, which keeps windows,
dependencies and the distortion order, so the structural counters repeat
exactly from plan to plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

import mediasched as ms

CONVEX = ms.CostModel(kind="convex", slot_duration=2.0)
GOP_PROFILE = (9.0, 6.0, 4.0, 3.0)


@dataclass(frozen=True)
class Inputs:
    trace: ms.MediaTrace
    channel: ms.ChannelModel
    cost: ms.CostModel
    alpha: float
    lam: float


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Inputs]
    # A trace of at most 10 packets from the same generator, solved by the
    # exhaustive reference as the output check.
    oracle_inputs: Callable[[int], Inputs]
    plan_share: float  # share of the measured seconds spent on cold plans
    episodes_per_call: int  # episodes in one timed monte_carlo call
    # With loss, the mean utility must stay inside (0.90, 1.0) times the
    # lossless computed value.
    loss_rate: float = 0.0
    # Sim workloads solve their policy in setup; plan workloads simulate the
    # policy of their first timed plan.
    solve_in_setup: bool = False


# Bad, middling and good link states. A seed jitters gains and transition
# rows by at most 5%: a freely drawn channel changes how long packets wait,
# and so the work per plan and per decide, by more than the metric bounds.
BASE_GAINS = (0.5, 1.5, 4.0)
BASE_TRANSITION = ((0.6, 0.3, 0.1), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6))
BASE_INITIAL = (0.3, 0.4, 0.3)
JITTER = 0.05


def jittered_channel(rng: np.random.Generator) -> ms.ChannelModel:
    """The 3-state base channel with every parameter scaled by 1 +- JITTER."""

    def shake(values):
        arr = np.asarray(values, dtype=float)
        return arr * rng.uniform(1.0 - JITTER, 1.0 + JITTER, size=arr.shape)

    gains = shake(BASE_GAINS)
    states = tuple(
        ms.ChannelState(id=i, gain=float(g), rate=float(g) / 2.0, loss_prob=0.0)
        for i, g in enumerate(gains)
    )
    transition = shake(BASE_TRANSITION)
    transition /= transition.sum(axis=1, keepdims=True)
    initial = shake(BASE_INITIAL)
    initial /= initial.sum()
    return ms.ChannelModel(states=states, transition=transition, initial=initial)


def _gop(seed: int, n_gops: int) -> Inputs:
    trace = ms.synth_trace(n_gops, len(GOP_PROFILE), 2, GOP_PROFILE, seed=seed)
    channel = jittered_channel(np.random.default_rng([seed, 0]))
    return Inputs(trace, channel, CONVEX, 0.9, 1.0)


def _scenario(name: str, seed: int) -> Inputs:
    # The canned scenarios are fixed; the seed drives plan scales and paths.
    return Inputs(*ms.SCENARIOS[name]())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan-gop",
            inputs=partial(_gop, n_gops=24),
            oracle_inputs=partial(_gop, n_gops=2),
            plan_share=0.85,
            episodes_per_call=8,
        ),
        Workload(
            "sim-lossy",
            inputs=partial(_scenario, "standard"),
            oracle_inputs=partial(_scenario, "standard"),
            plan_share=0.2,
            episodes_per_call=500,
            loss_rate=0.10,
            solve_in_setup=True,
        ),
    )
}


def validate(inputs: Inputs) -> None:
    """Raise ValueError when the generated inputs fail the library's own checks."""
    bad = ms.validate_trace(inputs.trace) + ms.validate_channel(inputs.channel)
    if bad:
        raise ValueError("generated inputs are invalid: " + "; ".join(bad))


def scaled(trace: ms.MediaTrace, factor: float) -> ms.MediaTrace:
    return ms.MediaTrace(
        packets=tuple(replace(p, distortion=p.distortion * factor) for p in trace.packets)
    )


def plan_traces(trace: ms.MediaTrace, seed: int):
    """Endless copies of trace, each scaled a little above the one before."""
    rng = np.random.default_rng([seed, 1])
    factor = 1.0
    while True:
        factor += 1e-9 * (1.0 + float(rng.random()))
        yield scaled(trace, factor)


def mc_seed(seed: int, call: int, episodes: int) -> int:
    """monte_carlo seed of the call-th timed call; paths never repeat in a run."""
    return seed * 1_000_000_007 + call * episodes
