"""Deviation measures as Minkowski gauges of acceptance sets.

The package works on finite probability spaces: positions are payoff
vectors, acceptance sets are membership oracles with structural flags, and
deviation measures arise as gauges ``inf { m > 0 : x / m in A }`` of those
sets.  Dual representations via polar polytopes and an invariant suite
tying the routes together round out the toolbox.
"""

from .market import MarketSpace, as_position, expectation, left_quantile
from .sets import AcceptanceSet, SetFlags, sublevel_set, add_constants, star_hull
from .gauge import GaugeOptions, GaugeResult, minkowski_gauge, shift_infimum_gauge
from .deviations import AxiomFlags, DeviationFunctional, builtin_deviation, builtin_error
from .duality import Polytope, polar, support_function

__all__ = [
    "MarketSpace",
    "as_position",
    "expectation",
    "left_quantile",
    "AcceptanceSet",
    "SetFlags",
    "sublevel_set",
    "add_constants",
    "star_hull",
    "GaugeOptions",
    "GaugeResult",
    "minkowski_gauge",
    "shift_infimum_gauge",
    "AxiomFlags",
    "DeviationFunctional",
    "builtin_deviation",
    "builtin_error",
    "Polytope",
    "polar",
    "support_function",
]
