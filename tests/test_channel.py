"""Channel model validation, serialization, sampling, and cost functions."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from itertools import cycle, islice
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mediasched
from mediasched import channel as channel_mod

from mediasched import (
    ChannelFormatError,
    ChannelModel,
    ChannelState,
    ChannelValidationError,
    CostModel,
    MediaTrace,
    Packet,
    averaged_channel,
    baseline_constant_channel,
    baseline_distortion_greedy,
    baseline_myopic,
    cost_convex,
    cost_linear,
    dump_channel,
    enumerate_single_schedules,
    load_channel,
    monte_carlo,
    run_episode,
    sample_path,
    solve,
    solve_convex,
    solve_exhaustive,
    solve_linear,
    solve_single,
    standard_scenario,
    validate_channel,
    volatile_scenario,
)
from conftest import random_channel


def two_state(p00=0.7, p11=0.6):
    return ChannelModel(
        states=(
            ChannelState(id=0, gain=1.0, rate=0.5, loss_prob=0.1),
            ChannelState(id=1, gain=3.0, rate=1.5, loss_prob=0.0),
        ),
        transition=np.array([[p00, 1 - p00], [1 - p11, p11]]),
        initial=np.array([0.5, 0.5]),
    )


def test_validate_accepts_random_models():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert validate_channel(random_channel(rng)) == []


def test_validate_flags_violations():
    model = ChannelModel(
        states=(
            ChannelState(id=1, gain=0.0, rate=-1.0, loss_prob=1.0),
        ),
        transition=np.array([[0.5]]),
        initial=np.array([0.2]),
    )
    out = validate_channel(model)
    assert any("expected 0" in v for v in out)
    assert any("gain" in v for v in out)
    assert any("rate" in v for v in out)
    assert any("loss_prob" in v for v in out)
    assert any("transition row 0" in v for v in out)
    assert any("initial sums" in v for v in out)


def test_validate_shape_mismatch():
    model = ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),),
        transition=np.array([[0.5, 0.5]]),
        initial=np.array([1.0]),
    )
    assert any("must be 1x1" in v for v in validate_channel(model))


def test_validate_flags_empty_and_negative_probabilities():
    assert validate_channel(ChannelModel(states=(), transition=np.zeros((0, 0)),
                                         initial=np.zeros(0))) == [
        "channel needs at least one state"]
    model = two_state()
    below = replace(model, transition=np.array([[1.0 + 2e-9, -2e-9], [0.5, 0.5]]))
    assert validate_channel(below) == ["transition has negative entries"]
    within = replace(model, transition=np.array([[1.0 + 5e-10, -5e-10], [0.5, 0.5]]))
    assert validate_channel(within) == []
    short = replace(model, initial=np.array([1.0]))
    assert validate_channel(short) == ["initial must have length 2, got shape (1,)"]
    negative = replace(model, initial=np.array([1.5, -0.5]))
    assert validate_channel(negative) == ["initial has negative entries"]


def test_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model = random_channel(rng)
        again = load_channel(dump_channel(model))
        assert again.states == model.states
        assert np.array_equal(again.transition, model.transition)
        assert np.array_equal(again.initial, model.initial)


# A well-formed one-state document. The malformed cases below edit one field
# of it, so the test that it loads keeps each of them malformed by its edit alone.
CHANNEL = ('{"states": [{"id": 0, "gain": 1, "rate": 1, "loss_prob": 0}], '
           '"transition": [[1]], "initial": [1]}')


def test_single_state_document_loads():
    assert load_channel(CHANNEL).states == (ChannelState(0, 1.0, 1.0, 0.0),)


@pytest.mark.parametrize(
    "doc",
    [
        "oops",
        "[]",
        '{"states": [], "transition": [], "initial": []}',
        '{"states": [{"id": 0}], "transition": [[1]], "initial": [1]}',
        '{"states": [{"id": 0, "gain": 1, "rate": 1, "loss_prob": 0, "x": 1}], '
        '"transition": [[1]], "initial": [1]}',
        '{"transition": [[1]], "initial": [1]}',
        '{"states": [{"id": 0, "gain": 1, "rate": 1, "loss_prob": 0}], '
        '"transition": [[1]], "initial": [1], "junk": 0}',
        pytest.param(CHANNEL.encode().replace(b'"gain"', b'"g\xe9in"'), id="not-utf8"),
        pytest.param("[" * 100000, id="deep-nesting"),
        pytest.param(CHANNEL.replace('"gain": 1', '"gain": 1' + "0" * 5000), id="5000-digits"),
        pytest.param(CHANNEL.replace('"gain": 1', '"gain": 1' + "0" * 400), id="float-10**400"),
        pytest.param(CHANNEL.replace("[[1]]", "[[1" + "0" * 400 + "]]"),
                     id="transition-10**400"),
        pytest.param(CHANNEL.replace('"id": 0', '"id": 1e400'), id="int-1e400"),
        pytest.param(CHANNEL.replace('"id": 0', '"id": 0.5'), id="int-fraction"),
        pytest.param(CHANNEL.replace('"id": 0', '"id": false'), id="int-bool"),
        pytest.param(CHANNEL.replace('"id": 0', '"id": "0"'), id="int-string"),
    ],
)
def test_load_rejects_malformed(doc):
    with pytest.raises(ChannelFormatError):
        load_channel(doc)


def test_load_rejects_invalid_model():
    doc = (
        '{"states": [{"id": 0, "gain": 1, "rate": 1, "loss_prob": 0}], '
        '"transition": [[0.5]], "initial": [1]}'
    )
    with pytest.raises(ChannelValidationError):
        load_channel(doc)


@pytest.mark.parametrize(
    "field, violation",
    [
        ("gain", "gain must be finite"),
        ("rate", "rate must be finite"),
        ("loss_prob", "loss_prob must be finite"),
        ("transition", "transition has non-finite"),
        ("initial", "initial has non-finite"),
    ],
)
def test_load_rejects_non_finite_fields(field, violation):
    doc = {
        "states": [{"id": 0, "gain": 1.0, "rate": 1.0, "loss_prob": 0.0},
                   {"id": 1, "gain": 2.0, "rate": 2.0, "loss_prob": 0.0}],
        "transition": [[0.5, 0.5], [0.5, 0.5]],
        "initial": [0.5, 0.5],
    }
    if field in ("transition", "initial"):
        row = doc[field][0] if field == "transition" else doc[field]
        row[0] = float("nan")
    else:
        doc["states"][1][field] = float("nan")
    with pytest.raises(ChannelValidationError) as err:
        load_channel(json.dumps(doc))
    assert any(violation in v for v in err.value.violations)


def test_sample_path_length_and_reproducibility():
    model = two_state()
    path = sample_path(model, horizon=10, seed=4)
    assert len(path) == 11
    assert all(s in (0, 1) for s in path)
    assert path == sample_path(model, 10, seed=4)
    assert path != sample_path(model, 10, seed=5)
    with pytest.raises(ValueError):
        sample_path(model, -1, seed=0)


def test_sample_path_respects_support():
    # deterministic cycle 0 -> 1 -> 0
    model = ChannelModel(
        states=(
            ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),
            ChannelState(id=1, gain=1.0, rate=1.0, loss_prob=0.0),
        ),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        initial=np.array([1.0, 0.0]),
    )
    assert sample_path(model, 5, seed=0) == [0, 1, 0, 1, 0, 1]


def choice_walk(model, horizon, seed):
    """Reference sampler: one rng.choice per slot, as paths were first drawn."""
    rng = np.random.default_rng(seed)
    n = model.n_states
    path = [int(rng.choice(n, p=model.initial))]
    for _ in range(horizon):
        path.append(int(rng.choice(n, p=model.transition[path[-1]])))
    return path


@st.composite
def stochastic_rows(draw, n_rows, n):
    """Rows of n weights, some exactly zero, normalised to sum to one."""
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = []
    for _ in range(n_rows):
        row = draw(st.lists(weight, min_size=n, max_size=n).filter(lambda r: sum(r) > 0))
        rows.append(np.array(row) / sum(row))
    return np.array(rows)


@st.composite
def channels(draw):
    n = draw(st.integers(1, 5))
    return ChannelModel(
        states=tuple(ChannelState(id=i, gain=1.0, rate=1.0, loss_prob=0.0) for i in range(n)),
        transition=draw(stochastic_rows(n, n)),
        initial=draw(stochastic_rows(1, n))[0],
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(channels(), st.integers(0, 40), st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
def test_sample_path_draws_what_rng_choice_draws(model, horizon, seeds):
    for seed in seeds:
        assert sample_path(model, horizon, seed) == choice_walk(model, horizon, seed)


def _stream_seeds():
    """Seeds across SeedSequence's word boundaries, random 96-bit ones, and the
    path and loss seeds of the benchmark's monte_carlo calls (mc_seed in
    bench/workloads.py: seed * 1_000_000_007 + call * episodes)."""
    rng = np.random.default_rng(31)
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 + 5, 2**128 - 1, 2**128, 2**160 + 7, 2**200]
    wide = [int(a) << 48 | int(b) for a, b in rng.integers(0, 2**48, size=(40, 2))]
    bench = [m + i for bench_seed in (1, 7, 10) for call in (0, 3)
             for m in (bench_seed * 1_000_000_007 + call * 500,) for i in (0, 499)]
    return edges + wide + bench + [m * 1_000_003 + i for m in bench for i in (0, 1)]


@pytest.mark.parametrize("k", [1, 16, 193])
def test_block_rows_equal_default_rng(k):
    seeds = _stream_seeds()
    want = {s: np.random.default_rng(s).random(k).tolist() for s in seeds}
    for n in (1, channel_mod._BLOCK_MIN - 1, channel_mod._BLOCK_MIN, 500):
        block = list(islice(cycle(seeds), n))
        expected = [want[s] for s in block]
        # the numpy path on every block size, and the dispatch on either side of the crossover
        assert channel_mod._block_rows(block, k) == expected
        assert list(channel_mod._uniform_rows(block, k)) == expected
    assert all(channel_mod._block_rows([s], k) == [want[s]] for s in seeds[:10])


def test_block_paths_equal_the_single_seed_paths():
    model = ChannelModel(
        states=tuple(ChannelState(id=i, gain=1.0, rate=1.0, loss_prob=0.0) for i in range(3)),
        transition=np.array([[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.0, 0.3, 0.7]]),
        initial=np.array([0.3, 0.4, 0.3]),
    )
    seeds = range(2**40, 2**40 + channel_mod._BLOCK_MIN + 5)
    for horizon in (0, 12, 100, 192):
        paths = list(channel_mod.path_sampler(model)(horizon, seeds))
        assert paths == [choice_walk(model, horizon, s) for s in seeds]


def test_stream_seeds_are_refused_as_default_rng_refuses_them():
    model = ChannelModel(
        states=(ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),),
        transition=np.array([[1.0]]),
        initial=np.array([1.0]),
    )
    for n in (1, channel_mod._BLOCK_MIN):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(channel_mod._uniform_rows([5] * (n - 1) + [-1], 3))
        with pytest.raises(TypeError):
            list(channel_mod._uniform_rows([5] * (n - 1) + [1.5], 3))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sample_path(model, 3, seed=-1)
    with pytest.raises(TypeError):
        sample_path(model, 3, seed=1.5)
    # run_episode seeds its loss stream up front, even for a policy that never sends
    trace = MediaTrace((Packet(id=0, size_bits=1.0, distortion=1.0, arrival=0, deadline=1),))
    idle = SimpleNamespace(name="idle", decide=lambda state: [])
    for seed, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            run_episode(idle, trace, model, [0, 0], CostModel(kind="linear"), 0.9, 1.0,
                        loss_rate=0.1, seed=seed)
    # numpy integers are seeds too
    assert list(channel_mod._uniform_rows([np.int64(3)] * channel_mod._BLOCK_MIN, 2))[0] == (
        np.random.default_rng(3).random(2).tolist())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(channels(), st.data())
def test_generated_channels_round_trip(shape, data):
    # channels() fixes the chain; the state attributes are drawn here
    positive = st.floats(min_value=1e-300, max_value=1e300)
    states = tuple(
        ChannelState(id=s.id, gain=data.draw(positive), rate=data.draw(positive),
                     loss_prob=data.draw(st.floats(0.0, 1.0, exclude_max=True)))
        for s in shape.states
    )
    model = ChannelModel(states=states, transition=shape.transition, initial=shape.initial)
    assert validate_channel(model) == []
    again = load_channel(dump_channel(model))
    assert again.states == model.states
    assert np.array_equal(again.transition, model.transition)
    assert np.array_equal(again.initial, model.initial)


@pytest.mark.parametrize("row", [[0.5999999, 0.4], [-1e-10, 1.0 + 1e-10]])
def test_rows_within_the_validation_tolerance_sample(row):
    # rng.choice refuses rows off one by more than about 1.5e-8 and any
    # negative entry; validation accepts 1e-6 and -1e-9.
    trace, channel, *_ = standard_scenario()
    tr = channel.transition.copy()
    tr[0] = row
    model = ChannelModel(states=channel.states, transition=tr, initial=channel.initial)
    assert validate_channel(model) == []
    path = sample_path(model, 200, seed=3)
    assert len(path) == 201 and set(path) <= {0, 1}
    if row[0] < 0:
        assert all(b == 1 for a, b in zip(path, path[1:]) if a == 0)


def test_cost_values():
    st = ChannelState(id=0, gain=4.0, rate=0.5, loss_prob=0.2)
    assert cost_linear(1.0, st) == pytest.approx(1.0 / (0.5 * 0.8))
    assert cost_linear(0.0, st) == 0.0
    assert cost_convex(0.0, st, 2.0) == 0.0
    # 2 bits over 2 time units: (2^2 - 1) / gain
    assert cost_convex(2.0, st, 2.0) == pytest.approx(3.0 / 4.0)
    # the power overflows a float; the cost is infinite, as cost_linear's would be
    assert cost_convex(5000.0, st, 2.0) == float("inf")
    assert cost_convex(1.0, st, 1e-300) == float("inf")
    with pytest.raises(ValueError):
        cost_linear(-1.0, st)
    with pytest.raises(ValueError):
        cost_convex(-1.0, st, 2.0)
    with pytest.raises(ValueError):
        cost_convex(1.0, st, 0.0)


def test_cost_model_dispatch_and_validation():
    st = ChannelState(id=0, gain=2.0, rate=1.0, loss_prob=0.0)
    assert CostModel(kind="linear").cost(3.0, st) == cost_linear(3.0, st)
    assert CostModel(kind="convex", slot_duration=4.0).cost(3.0, st) == cost_convex(
        3.0, st, 4.0
    )
    with pytest.raises(ValueError):
        CostModel(kind="quadratic")
    with pytest.raises(ValueError):
        CostModel(kind="convex", slot_duration=-1.0)


def test_marginal_costs_telescope():
    # The k-th packet's marginal cost is cost(k units) - cost(k - 1 units).
    rng = np.random.default_rng(17)
    for _ in range(20):
        st = ChannelState(
            id=0,
            gain=float(rng.uniform(0.5, 4.0)),
            rate=float(rng.uniform(0.3, 2.0)),
            loss_prob=float(rng.uniform(0.0, 0.5)),
        )
        cost = CostModel(kind=rng.choice(["linear", "convex"]), slot_duration=2.0)
        unit = float(rng.uniform(0.5, 2.0))
        m = int(rng.integers(1, 6))
        total = sum(cost.cost(k * unit, st) - cost.cost((k - 1) * unit, st)
                    for k in range(1, m + 1))
        assert total == pytest.approx(cost.cost(m * unit, st), rel=1e-12, abs=1e-12)
        assert cost.cost(0.0, st) == 0.0
        with pytest.raises(ValueError):
            cost.cost(-unit, st)


def test_convex_marginals_increase_linear_stay_flat():
    st = ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0)
    convex = CostModel(kind="convex", slot_duration=2.0)
    linear = CostModel(kind="linear")
    cm = [convex.cost(k, st) - convex.cost(k - 1, st) for k in range(1, 5)]
    lm = [linear.cost(k, st) - linear.cost(k - 1, st) for k in range(1, 5)]
    assert all(a < b for a, b in zip(cm, cm[1:]))
    assert all(a == lm[0] for a in lm)


def test_averaged_channel_single_state_passthrough():
    # A self-loop that falls short of 1 still averages to the state itself.
    for stay in (1.0, 0.9999999):
        model = ChannelModel(
            states=(ChannelState(id=0, gain=2.0, rate=1.0, loss_prob=0.1),),
            transition=np.array([[stay]]),
            initial=np.array([1.0]),
        )
        avg = averaged_channel(model)
        assert avg.states == model.states
        assert avg.transition.tolist() == [[1.0]]
        assert avg.initial.tolist() == [1.0]


def test_averaged_channel_matches_power_iteration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model = random_channel(rng)
        avg = averaged_channel(model)
        limit = np.linalg.matrix_power(model.transition, 2000)
        pi = limit[0]
        assert avg.n_states == 1
        assert avg.states[0].gain == pytest.approx(pi @ [s.gain for s in model.states])
        assert avg.states[0].rate == pytest.approx(pi @ [s.rate for s in model.states])
        assert avg.states[0].loss_prob == pytest.approx(
            pi @ [s.loss_prob for s in model.states]
        )


def test_averaged_channel_two_state_by_hand():
    # stationary split of [[0.7, 0.3], [0.4, 0.6]] is (4/7, 3/7)
    model = two_state(p00=0.7, p11=0.6)
    avg = averaged_channel(model)
    assert avg.states[0].gain == pytest.approx(4 / 7 * 1.0 + 3 / 7 * 3.0)
    assert avg.states[0].rate == pytest.approx(4 / 7 * 0.5 + 3 / 7 * 1.5)
    assert avg.states[0].loss_prob == pytest.approx(4 / 7 * 0.1)


def test_averaged_channel_rejects_reducible_and_periodic():
    base = dict(
        states=(
            ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0),
            ChannelState(id=1, gain=2.0, rate=2.0, loss_prob=0.0),
        ),
        initial=np.array([0.5, 0.5]),
    )
    reducible = ChannelModel(transition=np.array([[1.0, 0.0], [0.4, 0.6]]), **base)
    with pytest.raises(ChannelValidationError, match="reducible"):
        averaged_channel(reducible)
    periodic = ChannelModel(transition=np.array([[0.0, 1.0], [1.0, 0.0]]), **base)
    with pytest.raises(ChannelValidationError, match="periodic"):
        averaged_channel(periodic)


def test_averaged_channel_support_checks_match_networkx():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        transition = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.4)
        transition[np.arange(n), rng.integers(0, n, size=n)] += 0.5  # no empty rows
        transition /= transition.sum(axis=1, keepdims=True)
        states = tuple(
            ChannelState(id=i, gain=1.0 + i, rate=1.0, loss_prob=0.0) for i in range(n)
        )
        model = ChannelModel(states=states, transition=transition,
                             initial=np.full(n, 1.0 / n))
        support = nx.DiGraph()
        support.add_nodes_from(range(n))
        support.add_edges_from(zip(*np.nonzero(transition > 0)))
        if not nx.is_strongly_connected(support):
            expect = "reducible"
        elif not nx.is_aperiodic(support):
            expect = "periodic"
        else:
            expect = None
        if expect is None:
            assert averaged_channel(model).n_states == 1
        else:
            with pytest.raises(ChannelValidationError, match=expect):
                averaged_channel(model)


def test_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(mediasched.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, mediasched; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class Idle:
    name = "idle"

    def decide(self, state):
        return []


def _channel_entry_points():
    """Every engine, baseline and simulator entry point, on a given channel."""
    trace, _, cost, alpha, lam = standard_scenario()
    independent, *_ = volatile_scenario()
    linear, packet = CostModel(kind="linear"), trace.packets[0]
    return {
        "solve": lambda ch: solve(trace, ch, cost, alpha, lam),
        "solve_convex": lambda ch: solve_convex(trace, ch, cost, alpha, lam),
        "solve_linear": lambda ch: solve_linear(independent, ch, linear, alpha, lam),
        "solve_exhaustive": lambda ch: solve_exhaustive(trace, ch, cost, alpha, lam),
        "solve_single": lambda ch: solve_single(packet, ch, cost, alpha, lam),
        "enumerate_single_schedules": lambda ch: enumerate_single_schedules(
            replace(packet, deadline=packet.arrival + 1), ch, cost, alpha, lam),
        "sample_path": lambda ch: sample_path(ch, trace.horizon, 3),
        "monte_carlo": lambda ch: monte_carlo([Idle()], trace, ch, cost, alpha, lam, 2),
        "run_episode": lambda ch: run_episode(
            Idle(), trace, ch, [0] * (trace.horizon + 1), cost, alpha, lam),
        "myopic": lambda ch: baseline_myopic(trace, ch, cost, lam),
        "greedy": lambda ch: baseline_distortion_greedy(trace, ch, cost, lam),
        "constant": lambda ch: baseline_constant_channel(trace, ch, cost, alpha, lam),
    }


@pytest.mark.parametrize("entry", sorted(_channel_entry_points()))
def test_every_entry_point_checks_a_hand_built_channel(entry):
    # A NaN transition row used to plan initial values of -inf with no error.
    _, channel, *_ = standard_scenario()
    tr = channel.transition.copy()
    tr[0] = [float("nan"), 1.0]
    bad = ChannelModel(states=channel.states, transition=tr, initial=channel.initial)
    call = _channel_entry_points()[entry]
    for _ in range(2):  # a refusal is not remembered as a pass
        with pytest.raises(ChannelValidationError, match="non-finite"):
            call(bad)
    call(channel)


def test_each_channel_instance_is_validated_once(monkeypatch):
    calls = []
    monkeypatch.setattr(mediasched.channel, "validate_channel",
                        partial(lambda real, model: calls.append(model) or real(model),
                                validate_channel))
    _, channel, *_ = standard_scenario()
    for call in _channel_entry_points().values():
        call(channel)
    # the constant baseline plans on a second, averaged model
    assert sum(model is channel for model in calls) == 1
