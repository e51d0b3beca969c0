"""Channel model validation, serialization, sampling, and cost functions."""

import json
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mediasched

from mediasched import (
    ChannelFormatError,
    ChannelModel,
    ChannelState,
    ChannelValidationError,
    CostModel,
    averaged_channel,
    cost_convex,
    cost_linear,
    dump_channel,
    load_channel,
    marginal_cost,
    sample_path,
    standard_scenario,
    validate_channel,
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


def test_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        model = random_channel(rng)
        again = load_channel(dump_channel(model))
        assert again.states == model.states
        assert np.array_equal(again.transition, model.transition)
        assert np.array_equal(again.initial, model.initial)


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
        total = sum(marginal_cost(cost, k, unit, st) for k in range(1, m + 1))
        assert total == pytest.approx(cost.cost(m * unit, st), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        marginal_cost(CostModel(kind="linear"), 0, 1.0, st)


def test_convex_marginals_increase_linear_stay_flat():
    st = ChannelState(id=0, gain=1.0, rate=1.0, loss_prob=0.0)
    convex = CostModel(kind="convex", slot_duration=2.0)
    linear = CostModel(kind="linear")
    cm = [marginal_cost(convex, k, 1.0, st) for k in range(1, 5)]
    lm = [marginal_cost(linear, k, 1.0, st) for k in range(1, 5)]
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
