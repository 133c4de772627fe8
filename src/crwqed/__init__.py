"""Simulator for two giant atoms coupled to a coupled-resonator waveguide:
bound states in the continuum and beyond-Markovian single-excitation
dynamics."""

__version__ = "0.1.0"

from .model import (
    AtomTrajectory,
    ConfigError,
    FieldSnapshot,
    SystemConfig,
    TimeGrid,
    WavefunctionState,
    initial_state,
    parse_config_file,
)

__all__ = [
    "AtomTrajectory",
    "ConfigError",
    "FieldSnapshot",
    "SystemConfig",
    "TimeGrid",
    "WavefunctionState",
    "initial_state",
    "parse_config_file",
    "__version__",
]
