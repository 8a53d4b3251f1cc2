"""The chain walk inside sample_chain against the sequential searchsorted
walk it replaced (brute_force_chain_path): paths must agree bit for bit,
including uniforms placed exactly on row breakpoints, zero-probability
entries, and rows summing short of 1."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from laneweave.markov import CoarseModel, sample_chain

from _oracles import brute_force_chain_path

SHORTFALL = 5e-10  # inside the loader's 1e-9 row-sum tolerance


class FixedUniforms(np.random.Generator):
    """A generator whose random() returns given uniforms, so a walk can be
    fed values sitting exactly on cumulative-row breakpoints."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self._uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self._uniforms.size
        return self._uniforms.copy()


def _model(transition):
    transition = np.asarray(transition, dtype=np.float64)
    return CoarseModel(
        n_c=transition.shape[0],
        dt=0.2,
        transition=transition,
        smoothing_sigma=0.6,
        smoothing_support=1.0,
    )


def _assert_matches_oracle(transition, initial_state, uniforms):
    model = _model(transition)
    path = sample_chain(model, initial_state, len(uniforms) + 1, FixedUniforms(uniforms))
    expected = brute_force_chain_path(np.cumsum(model.transition, axis=1), initial_state, uniforms)
    assert path.dtype == np.int64
    assert np.array_equal(path, expected)


def _breakpoints(transition):
    cum = np.cumsum(transition, axis=1).ravel()
    return np.unique(np.concatenate([[0.0], cum[cum < 1.0]]))


def _awkward_matrix(rng, n_c):
    """Dense random rows with some zero entries, a first row that jumps
    straight to the last state, and a last row summing just short of 1."""
    transition = rng.random((n_c, n_c))
    transition[rng.random((n_c, n_c)) < 0.3] = 0.0
    transition[:, 0] += 1e-3  # no all-zero row
    transition /= transition.sum(axis=1, keepdims=True)
    transition[0] = np.eye(n_c)[-1]
    transition[-1] *= 1.0 - SHORTFALL
    return transition


def _uniforms_on_breakpoints(rng, transition, initial_state, n):
    """n uniforms of which about a quarter sit exactly on a breakpoint
    (a cumulative value below 1) of the row the walk is in at that step."""
    cum = np.cumsum(transition, axis=1)
    uniforms = rng.random(n)
    state = initial_state
    for i in range(n):
        breakpoints = cum[state][cum[state] < 1.0]
        if breakpoints.size and rng.random() < 0.25:
            uniforms[i] = rng.choice(breakpoints)
        state = brute_force_chain_path(cum, state, uniforms[i : i + 1])[1]
    return uniforms


def test_walks_deterministically():
    path = sample_chain(_model([[0.0, 1.0], [1.0, 0.0]]), 0, 4, FixedUniforms(np.full(3, 0.5)))
    assert path.tolist() == [0, 1, 0, 1]


def test_clamps_when_row_sum_falls_short():
    # A uniform at or above the row's cumulative total lands past the last
    # breakpoint and must clamp to the last state.
    transition = [[0.3, 0.7 * (1.0 - SHORTFALL)], [0.5, 0.5]]
    path = sample_chain(_model(transition), 0, 2, FixedUniforms([1.0 - SHORTFALL / 10]))
    assert path.tolist() == [0, 1]
    _assert_matches_oracle(transition, 0, [1.0 - SHORTFALL / 10, 0.9999999999999999])


@pytest.mark.parametrize("n_c", [2, 7, 20, 40])
@pytest.mark.parametrize("n_steps", [1, 2, 49, 5000])
def test_matches_oracle_on_fixed_cases(n_c, n_steps):
    rng = np.random.default_rng(1000 * n_c + n_steps)
    transition = _awkward_matrix(rng, n_c)
    for initial_state in (0, n_c // 2, n_c - 1):
        uniforms = _uniforms_on_breakpoints(rng, transition, initial_state, n_steps - 1)
        _assert_matches_oracle(transition, initial_state, uniforms)


@pytest.mark.parametrize("n_c", [2, 20])
def test_seeded_walk_draws_the_same_uniforms(n_c):
    transition = _awkward_matrix(np.random.default_rng(n_c), n_c)
    path = sample_chain(_model(transition), 1, 5000, np.random.default_rng(77))
    uniforms = np.random.default_rng(77).random(4999)
    expected = brute_force_chain_path(np.cumsum(transition, axis=1), 1, uniforms)
    assert np.array_equal(path, expected)


@st.composite
def chains(draw):
    n_c = draw(st.integers(min_value=2, max_value=12))
    weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1.0))
    rows = []
    for i in range(n_c):
        row = np.array(draw(st.lists(weight, min_size=n_c, max_size=n_c)))
        row = row / row.sum() if row.sum() > 0 else np.eye(n_c)[i]
        if draw(st.booleans()):
            row = row * (1.0 - SHORTFALL)
        rows.append(row)
    transition = np.array(rows)
    uniform = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(_breakpoints(transition).tolist()),
    )
    uniforms = draw(st.lists(uniform, max_size=60))
    initial_state = draw(st.integers(min_value=0, max_value=n_c - 1))
    return transition, initial_state, uniforms


@given(chains())
def test_matches_oracle_on_random_chains(chain):
    transition, initial_state, uniforms = chain
    _assert_matches_oracle(transition, initial_state, np.array(uniforms, dtype=np.float64))
