"""Finite-state Markov channel models and transmission cost functions."""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .media import _json_int, _read_object

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

    @cached_property  # read on every decide
    def n_states(self) -> int:
        return len(self.states)

    @cached_property  # every engine and episode asks, so each model is validated once
    def _violations(self) -> tuple[str, ...]:
        return tuple(validate_channel(self))


def _check_channel(model: ChannelModel) -> None:
    """Raise ChannelValidationError when the model breaks an invariant."""
    if model._violations:
        raise ChannelValidationError(model._violations)


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
    doc = _read_object(source, _CHANNEL_FIELDS, ChannelFormatError)
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ChannelFormatError("'states' must be a nonempty list")

    states = []
    for pos, entry in enumerate(doc["states"]):
        where = f"state at position {pos}"
        entry = _read_object(entry, _STATE_FIELDS, ChannelFormatError, where)
        try:
            states.append(
                ChannelState(
                    id=_json_int(entry["id"]),
                    gain=float(entry["gain"]),
                    rate=float(entry["rate"]),
                    loss_prob=float(entry["loss_prob"]),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ChannelFormatError(f"{where}: bad field value ({exc})") from exc

    try:
        transition = np.array(doc["transition"], dtype=float)
        initial = np.array(doc["initial"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ChannelFormatError(f"bad transition/initial matrix: {exc}") from exc

    model = ChannelModel(states=tuple(states), transition=transition, initial=initial)
    _check_channel(model)
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
    return (c / c[-1]).tolist()


_M32, _PCG_MULT = 0xFFFFFFFF, 0x2360ED051FC65DA44385DF649FCCF645
# Below _BLOCK_MIN seeds a numpy block costs more per seed than default_rng: on a
# 2-vCPU machine (numpy 2.4) 13 uniforms took 18, 13 and 6.3 us per seed in blocks of
# 8, 16 and 32 against 14-16 us. Blocks hold at most _BLOCK_UNIFORMS uniforms, which
# bounds memory; so streams of over 128 uniforms, which numpy only ties, use default_rng.
_BLOCK_MIN, _BLOCK_UNIFORMS = 32, 4096


def _uniform_rows(seeds, k: int):
    """Yield default_rng(s).random(k).tolist() for each int seed s >= 0, blocks of
    _BLOCK_MIN seeds or more computed in numpy, as numpy keeps these streams stable."""
    seeds = [operator.index(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    size = max(1, _BLOCK_UNIFORMS // max(k, 1))
    for block in (seeds[i:i + size] for i in range(0, len(seeds), size)):
        yield from (_block_rows(block, k) if len(block) >= _BLOCK_MIN else
                    (np.random.default_rng(s).random(k).tolist() for s in block))


def _hashmix(v, c, mult, n):
    """SeedSequence's hashmix of the n rows of v from hash constant c; the next c."""
    cs = np.array([c] + [c := c * mult & _M32 for _ in range(n)], dtype=np.uint32)[:, None]
    v = (v ^ cs[:-1]) * cs[1:]
    return v ^ v >> 16, c


def _mix(x, y):
    r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return r ^ r >> 16


@lru_cache(maxsize=8)
def _jump_table(k):
    """uint64 (hi, lo) limbs of M**(d+2) and 1 + M + ... + M**(d+2), d < k: PCG64 seeded
    with (x, seq) outputs at draw d its state M**(d+2) * x + (1 + ... + M**(d+2)) * (2*seq + 1)."""
    m, c, rows = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(k):
        m, c = m * _PCG_MULT % 2**128, (c + m * _PCG_MULT) % 2**128
        rows.append((m >> 64, c >> 64, m % 2**64, c % 2**64))
    return np.array(rows, dtype=np.uint64).T.reshape(2, 2, 1, k)


def _block_rows(seeds: list[int], k: int) -> list[list[float]]:
    """SeedSequence's pool mixing in uint32, then PCG64's seeding and draws in uint64 limbs."""
    nw = max(4, -(-max(seeds).bit_length() // 32))  # numpy pads entropy with 0s
    words = np.frombuffer(b"".join(s.to_bytes(4 * nw, "little") for s in seeds), "<u4")
    pool, c = _hashmix(words.reshape(-1, nw).T[:4], 0x43B0D7E5, 0x931E8875, 4)
    for i, dst in enumerate(([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])):
        mixed, c = _hashmix(pool[i], c, 0x931E8875, 3)
        pool[dst] = _mix(pool[dst], mixed)
    for i in range(4, nw):  # seeds of 2**128 and above mix in their extra words
        mixed, c = _hashmix(words[i::nw], c, 0x931E8875, 4)
        pool = np.where([s >> 32 * i > 0 for s in seeds], _mix(pool, mixed), pool)
    st = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0x8B51F9DD, 0x58F38DED, 8)[0].astype(np.uint64)
    st = (st[0::2] | st[1::2] << 32)[:, :, None]  # x hi, x lo, seq hi, seq lo
    xh, xl = np.stack([st[0], st[2] << 1 | st[3] >> 63]), np.stack([st[1], st[3] << 1 | 1])
    ch, cl = _jump_table(k)  # the state is the sum of xh:xl times ch:cl
    x0, x1, c0, c1 = xl & _M32, xl >> 32, cl & _M32, cl >> 32
    p01, p10, lo = x0 * c1, x1 * c0, xl * cl
    mid = (x0 * c0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = x1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + xh * cl + xl * ch
    lo, hi = lo[0] + lo[1], hi[0] + hi[1] + (lo[0] + lo[1] < lo[0])
    v, rot = hi ^ lo, hi >> 58  # XSL-RR
    return (((v >> rot | v << (-rot & 63)) >> 11) * (1.0 / 2**53)).tolist()


def path_sampler(model: ChannelModel):
    """Return sample(horizon, seeds), which yields each seed's sample_path.

    The cumulative rows are built once here. A path takes the stream of
    default_rng(seed) from _uniform_rows: one uniform per slot, inverted
    through the row of the previous state, as rng.choice(n, p=row) does.
    """
    _check_channel(model)
    first = _cdf(model.initial)
    rows = [_cdf(row) for row in model.transition]

    def sample(horizon: int, seeds):
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        for u in _uniform_rows(seeds, horizon + 1):
            path = [bisect_right(first, u[0])]
            for x in u[1:]:
                path.append(bisect_right(rows[path[-1]], x))
            yield path

    return sample


def sample_path(model: ChannelModel, horizon: int, seed: int) -> list[int]:
    """Draw a state-id path of length horizon + 1 (one id per slot)."""
    return next(path_sampler(model)(horizon, [seed]))


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
    try:
        return (2.0 ** (2.0 * bits / slot_duration) - 1.0) / state.gain
    except OverflowError:  # float power raises where float division gives inf
        return math.inf


@dataclass(frozen=True)
class CostModel:
    """Cost kind plus the parameters the kind needs."""

    kind: str  # 'linear' or 'convex'
    slot_duration: float = 2.0

    def __post_init__(self):
        if self.kind not in ("linear", "convex"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if not (math.isfinite(self.slot_duration) and self.slot_duration > 0):
            raise ValueError("slot_duration must be positive and finite")

    def cost(self, bits: float, state: ChannelState) -> float:
        if self.kind == "linear":
            return cost_linear(bits, state)
        return cost_convex(bits, state, self.slot_duration)


def averaged_channel(model: ChannelModel) -> ChannelModel:
    """Collapse a channel to one state carrying stationary-weighted attributes.

    The chain must be irreducible and aperiodic so the long-run weights are
    unambiguous; anything else raises ChannelValidationError.
    """
    _check_channel(model)
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
