"""Fair, privacy-aware V2G discharge dispatch: simulator and benchmark harness.

The package root binds its modules and nothing else: import each name from
the module that defines it (``from v2gdispatch.orchestrator import
run_scenario``).
"""

from . import baselines, config, costs, dwoa, fleet, harness, orchestrator, records, shuffle, topology

__version__ = "0.1.0"
