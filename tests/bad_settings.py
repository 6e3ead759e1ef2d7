"""One table of simulation settings that every entry point must refuse.

``test_simulate.py`` passes each value to ``SimConfig`` and ``test_cli.py``
writes it into a configuration's ``sim`` block; both expect the refusal to
name the field, since ``simulate.require_settings`` checks both.
"""

import math

_BAD = {
    "x0": [True, "0.5", math.nan],
    "dt": [True, "1e-3", math.nan],
    "horizon": [True, "5", math.nan],
    "burn_in": [True, "0.1", math.nan],
    "n_paths": [True, "8", 2.5, math.nan],
    "measure": [True, "worstcase ", math.nan],
}

BAD_SETTINGS = [(key, value) for key, values in _BAD.items()
                for value in values]
IDS = [f"{key}={value!r}" for key, value in BAD_SETTINGS]
