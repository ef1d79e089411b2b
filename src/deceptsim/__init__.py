"""Deception-defense sizing simulator.

Simulates scripted attackers against a single-subnet network protected by
honeypots and periodic address mutation, and sweeps defense parameters to
estimate attacker win probability.
"""

__version__ = "0.1.0"

from .experiment import EpisodeRecord, SweepConfig, aggregate, iter_sweep, run_episode, run_sweep
from .scenario import GeneratorParams, generate_scenario

__all__ = [
    "EpisodeRecord",
    "GeneratorParams",
    "SweepConfig",
    "aggregate",
    "generate_scenario",
    "iter_sweep",
    "run_episode",
    "run_sweep",
    "__version__",
]
