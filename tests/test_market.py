"""Market-space primitives: quantiles, orders, comonotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdev import market
from minkdev.deviations import builtin_error
from minkdev.market import MarketError, MarketSpace
from minkdev.sets import ball_set

BINARY = MarketSpace(np.array([0.25, 0.75]))
UNIFORM3 = MarketSpace(np.full(3, 1.0 / 3.0))


# --- construction and validation ------------------------------------------

def test_space_rejects_bad_probabilities():
    with pytest.raises(MarketError):
        MarketSpace(np.array([0.5, 0.6]))
    with pytest.raises(MarketError):
        MarketSpace(np.array([1.0, 0.0]))
    with pytest.raises(MarketError):
        MarketSpace(np.array([-0.5, 1.5]))


def test_position_validation():
    with pytest.raises(MarketError):
        market.as_position(BINARY, [1.0, 2.0, 3.0])
    with pytest.raises(MarketError):
        market.as_position(BINARY, [1.0, math.nan])


# --- expectation / statistics ---------------------------------------------

def test_expectation_binary():
    # 1/4 * 0 + 3/4 * (4/3) = 1
    assert market.expectation(BINARY, np.array([0.0, 4.0 / 3.0])) == pytest.approx(1.0)


def test_statistics_and_norms():
    x = np.array([-2.0, 2.0])
    assert market.expectation(BINARY, x) == pytest.approx(1.0)
    # weighted L2: sqrt(1/4 * 4 + 3/4 * 4) = 2
    assert market.lp_norm(BINARY, x, 2) == pytest.approx(2.0)
    assert market.lp_norm(BINARY, x, math.inf) == 2.0
    with pytest.raises(MarketError):
        market.lp_norm(BINARY, x, 0.5)


def test_lp_norm_rejects_a_nan_exponent():
    # 1 ** nan == 1, so a NaN exponent would put [1, -1] on the unit sphere
    x = np.array([1.0, -1.0])
    with pytest.raises(MarketError):
        market.lp_norm(BINARY, x, math.nan)
    with pytest.raises(MarketError):
        ball_set(BINARY, math.nan)
    with pytest.raises(MarketError):
        builtin_error("lp_norm", p=math.nan).eval(BINARY, x)


def test_pairing_is_probability_weighted():
    assert market.pairing(BINARY, np.array([2.0, 4.0]), np.array([1.0, 1.0])) == pytest.approx(3.5)


# --- quantiles --------------------------------------------------------------

def test_left_quantile_step_behaviour():
    x = np.array([0.0, 4.0 / 3.0])
    law = market.sorted_distribution(BINARY, x)
    # P(X <= 0) = 1/4: levels up to 1/4 give the lower atom.
    assert market.left_quantile(*law, 0.1) == 0.0
    assert market.left_quantile(*law, 0.25) == 0.0
    assert market.left_quantile(*law, 0.26) == pytest.approx(4.0 / 3.0)
    assert market.left_quantile(*law, 1.0) == pytest.approx(4.0 / 3.0)
    # an array of levels reads each level's quantile from the one law
    levels = [0.1, 0.25, 0.26, 1.0]
    assert market.left_quantile(*law, levels).tolist() == [market.left_quantile(*law, t) for t in levels]
    for bad in (0.0, [0.5, 1.5]):
        with pytest.raises(MarketError):
            market.left_quantile(*law, bad)


def test_quantile_is_comonotone_additive_building_block():
    rng = np.random.default_rng(1)
    space = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))
    for _ in range(50):
        x, y = market.sample_comonotone_pair(rng, space, scale=2.0)
        for t in (0.05, 0.15, 0.45, 0.85):
            qx = market.left_quantile(*market.sorted_distribution(space, x), t)
            qy = market.left_quantile(*market.sorted_distribution(space, y), t)
            qxy = market.left_quantile(*market.sorted_distribution(space, x + y), t)
            assert qxy == pytest.approx(qx + qy, abs=1e-12)


# --- sampling ---------------------------------------------------------------

@pytest.mark.parametrize("space", [BINARY, UNIFORM3], ids=["n2", "n3"])
def test_a_batch_of_sampled_positions_is_that_many_single_draws(space):
    batch_rng, single_rng = np.random.default_rng(4), np.random.default_rng(4)
    X = market.sample_positions(batch_rng, space, 7)
    singles = [market.sample_positions(single_rng, space) for _ in range(7)]
    assert X.shape == (7, space.n) and singles[0].shape == (space.n,)
    assert X.tolist() == [x.tolist() for x in singles]
    assert batch_rng.random() == single_rng.random()     # the stream goes on alike
    assert np.all(np.abs(X) <= market.SAMPLE_RANGE)


# --- comonotonicity ----------------------------------------------------------

def test_is_comonotone_examples():
    assert market.is_comonotone(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert not market.is_comonotone(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    # constants are comonotone with everything
    assert market.is_comonotone(np.array([2.0, 2.0, 2.0]), np.array([3.0, -1.0, 0.5]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sampled_pairs_are_comonotone(seed):
    rng = np.random.default_rng(seed)
    space = UNIFORM3
    x, y = market.sample_comonotone_pair(rng, space, scale=3.0)
    assert market.is_comonotone(x, y)


# --- dispersive order --------------------------------------------------------

def test_dispersive_order_contractions():
    space = MarketSpace(np.array([0.1, 0.2, 0.3, 0.4]))
    x = np.array([-2.0, 0.5, 1.0, 3.0])
    mean = market.expectation(space, x)
    # shrinking around any centre reduces every quantile spread
    y = 0.7 + mean + 0.5 * (x - mean)
    assert market.dispersive_leq(space, y, x)
    assert not market.dispersive_leq(space, x, y)
    # shifts do not change dispersion: order holds both ways
    assert market.dispersive_leq(space, x + 3.0, x)
    assert market.dispersive_leq(space, x, x + 3.0)

