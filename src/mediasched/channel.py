"""Finite-state Markov channel models and transmission cost functions."""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

_CHANNEL_FIELDS = {"states", "transition", "initial"}
_STATE_FIELDS = {"id", "gain", "rate", "loss_prob"}

_PROB_TOL = 1e-9


class ChannelFormatError(ValueError):
    """The document could not be parsed into a channel model."""


class ChannelValidationError(ValueError):
    """A parsed channel model violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid channel: " + "; ".join(self.violations))


@dataclass(frozen=True)
class ChannelState:
    id: int
    gain: float
    rate: float
    loss_prob: float


@dataclass(frozen=True, eq=False)
class ChannelModel:
    states: tuple[ChannelState, ...]
    transition: np.ndarray  # row-stochastic, transition[h, h']
    initial: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)


def validate_channel(model: ChannelModel) -> list[str]:
    """Return a list of invariant violations, empty when the model is sound."""
    out: list[str] = []
    n = len(model.states)
    if n == 0:
        out.append("channel needs at least one state")
        return out
    for pos, st in enumerate(model.states):
        if st.id != pos:
            out.append(f"state at position {pos} has id {st.id}, expected {pos}")
        for name in ("gain", "rate", "loss_prob"):
            if not math.isfinite(getattr(st, name)):
                out.append(f"state {st.id}: {name} must be finite")
        if st.gain <= 0:
            out.append(f"state {st.id}: gain must be positive")
        if st.rate <= 0:
            out.append(f"state {st.id}: rate must be positive")
        if not 0 <= st.loss_prob < 1:
            out.append(f"state {st.id}: loss_prob must lie in [0, 1)")
    tr = np.asarray(model.transition, dtype=float)
    if tr.shape != (n, n):
        out.append(f"transition must be {n}x{n}, got {tr.shape}")
        return out
    if not np.isfinite(tr).all():
        out.append("transition has non-finite entries")
    if (tr < -_PROB_TOL).any():
        out.append("transition has negative entries")
    rows = tr.sum(axis=1)
    for h, total in enumerate(rows):
        if abs(total - 1.0) > 1e-6:
            out.append(f"transition row {h} sums to {total}, expected 1")
    init = np.asarray(model.initial, dtype=float)
    if init.shape != (n,):
        out.append(f"initial must have length {n}, got shape {init.shape}")
    else:
        if not np.isfinite(init).all():
            out.append("initial has non-finite entries")
        if (init < -_PROB_TOL).any():
            out.append("initial has negative entries")
        if abs(init.sum() - 1.0) > 1e-6:
            out.append(f"initial sums to {init.sum()}, expected 1")
    return out


def load_channel(source) -> ChannelModel:
    """Parse a channel document (bytes, text, or a readable file) and validate it."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ChannelFormatError("top level must be an object")
    unknown = set(doc) - _CHANNEL_FIELDS
    if unknown:
        raise ChannelFormatError(f"unknown top-level fields {sorted(unknown)}")
    missing = _CHANNEL_FIELDS - set(doc)
    if missing:
        raise ChannelFormatError(f"missing top-level fields {sorted(missing)}")
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ChannelFormatError("'states' must be a nonempty list")

    states = []
    for pos, entry in enumerate(doc["states"]):
        if not isinstance(entry, dict):
            raise ChannelFormatError(f"state at position {pos} is not an object")
        unknown = set(entry) - _STATE_FIELDS
        if unknown:
            raise ChannelFormatError(f"state at position {pos}: unknown fields {sorted(unknown)}")
        missing = _STATE_FIELDS - set(entry)
        if missing:
            raise ChannelFormatError(f"state at position {pos}: missing fields {sorted(missing)}")
        try:
            states.append(
                ChannelState(
                    id=int(entry["id"]),
                    gain=float(entry["gain"]),
                    rate=float(entry["rate"]),
                    loss_prob=float(entry["loss_prob"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ChannelFormatError(f"state at position {pos}: bad field value ({exc})") from exc

    try:
        transition = np.array(doc["transition"], dtype=float)
        initial = np.array(doc["initial"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelFormatError(f"bad transition/initial matrix: {exc}") from exc

    model = ChannelModel(states=tuple(states), transition=transition, initial=initial)
    violations = validate_channel(model)
    if violations:
        raise ChannelValidationError(violations)
    return model


def dump_channel(model: ChannelModel) -> str:
    doc = {
        "states": [
            {"id": s.id, "gain": s.gain, "rate": s.rate, "loss_prob": s.loss_prob}
            for s in model.states
        ],
        "transition": model.transition.tolist(),
        "initial": model.initial.tolist(),
    }
    return json.dumps(doc, indent=2)


def _cdf(p) -> list[float]:
    """Cumulative row normalised by its total, as Generator.choice builds it.

    Entries are clipped at zero first, so a row that passed validation
    (within its tolerances) always samples instead of being refused.
    """
    c = np.cumsum(np.maximum(np.asarray(p, dtype=float), 0.0))
    if not c[-1] > 0.0:
        raise ValueError("probability row has no positive mass")
    return (c / c[-1]).tolist()


def path_sampler(model: ChannelModel):
    """Return sample(horizon, seed), which draws what sample_path draws.

    The cumulative rows are built once here. Each path still comes from its
    own default_rng(seed): one uniform per slot, inverted through the row of
    the previous state, which is exactly the draw rng.choice(n, p=row) makes.
    """
    first = _cdf(model.initial)
    rows = [_cdf(row) for row in model.transition]

    def sample(horizon: int, seed: int) -> list[int]:
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        u = np.random.default_rng(seed).random(horizon + 1).tolist()
        h = bisect_right(first, u[0])
        path = [h]
        for x in u[1:]:
            h = bisect_right(rows[h], x)
            path.append(h)
        return path

    return sample


def sample_path(model: ChannelModel, horizon: int, seed: int) -> list[int]:
    """Draw a state-id path of length horizon + 1 (one id per slot)."""
    return path_sampler(model)(horizon, seed)


# ---------------------------------------------------------------------------
# transmission costs
# ---------------------------------------------------------------------------


def cost_linear(bits: float, state: ChannelState) -> float:
    """Airtime-style cost: bits scaled by the expected goodput of the state."""
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    return bits / (state.rate * (1.0 - state.loss_prob))

def cost_convex(bits: float, state: ChannelState, slot_duration: float) -> float:
    """Power-style cost, exponential in the per-slot payload, scaled by gain."""
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    if slot_duration <= 0:
        raise ValueError("slot_duration must be positive")
    return (2.0 ** (2.0 * bits / slot_duration) - 1.0) / state.gain


@dataclass(frozen=True)
class CostModel:
    """Cost kind plus the parameters the kind needs."""

    kind: str  # 'linear' or 'convex'
    slot_duration: float = 2.0

    def __post_init__(self):
        if self.kind not in ("linear", "convex"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")

    def cost(self, bits: float, state: ChannelState) -> float:
        if self.kind == "linear":
            return cost_linear(bits, state)
        return cost_convex(bits, state, self.slot_duration)


def marginal_cost(cost: CostModel, k: int, unit_bits: float, state: ChannelState) -> float:
    """Extra cost of the k-th equal-sized packet added to a slot (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return cost.cost(k * unit_bits, state) - cost.cost((k - 1) * unit_bits, state)


def averaged_channel(model: ChannelModel) -> ChannelModel:
    """Collapse a channel to one state carrying stationary-weighted attributes.

    The chain must be irreducible and aperiodic so the long-run weights are
    unambiguous; anything else raises ChannelValidationError.
    """
    n = model.n_states
    # Boolean matrix powers of the support. Irreducible: every state reaches
    # every other within n - 1 steps. Aperiodic, given irreducible: the
    # (n - 1)^2 + 1 step support is all positive (Wielandt's bound).
    step = model.transition > 0
    if not np.linalg.matrix_power(step | np.eye(n, dtype=bool), n - 1).all():
        raise ChannelValidationError(["chain is reducible, stationary weights are not unique"])
    if not np.linalg.matrix_power(step, (n - 1) ** 2 + 1).all():
        raise ChannelValidationError(["chain is periodic, long-run weights do not settle"])

    # pi solves pi P = pi with sum(pi) = 1
    a = model.transition.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)

    gain = float(pi @ [s.gain for s in model.states])
    rate = float(pi @ [s.rate for s in model.states])
    loss = float(pi @ [s.loss_prob for s in model.states])
    return ChannelModel(
        states=(ChannelState(id=0, gain=gain, rate=rate, loss_prob=loss),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )
