"""Energy-harvesting front-end: sources, traces, rectifier, outages.

Ambient harvesters deliver unstable micro-watt power: a wrist-worn
kinetic harvester averages 10–40 µW but swings between 0 and ~2000 µW
at sub-millisecond granularity, producing on the order of a thousand
power emergencies in a 10 s window.  This package synthesises traces
with those statistics for each source class the DATE'17 tutorial
surveys (kinetic/piezo, solar, RF/WiFi, thermal), models the AC-DC
rectifier, and provides outage analytics.
"""

from repro.harvest.traces import PowerTrace
from repro.harvest.sources import (
    combine_traces,
    constant_trace,
    hybrid_trace,
    rf_trace,
    solar_trace,
    square_trace,
    thermal_trace,
    wristwatch_trace,
    SOURCE_GENERATORS,
    standard_profile,
    standard_profiles,
)
from repro.harvest.rectifier import Rectifier
from repro.harvest.outage import OutageStats, analyze_outages

__all__ = [
    "OutageStats",
    "PowerTrace",
    "Rectifier",
    "SOURCE_GENERATORS",
    "analyze_outages",
    "combine_traces",
    "constant_trace",
    "hybrid_trace",
    "rf_trace",
    "solar_trace",
    "square_trace",
    "standard_profile",
    "standard_profiles",
    "thermal_trace",
    "wristwatch_trace",
]
