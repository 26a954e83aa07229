"""Discrete-event simulation substrate.

This subpackage provides the minimal but complete event-driven simulation
machinery every other subsystem is built on:

* :class:`repro.sim.engine.SimulationEngine` -- a virtual-time event queue
  with deterministic tie-breaking.
* :mod:`repro.sim.rng` -- named, reproducible random-number streams so that
  independent subsystems never share (and therefore never perturb) each
  other's randomness.
"""

from repro.sim.engine import Event, SimulationEngine
from repro.sim.rng import RandomStreams, spawn_rng

__all__ = [
    "Event",
    "SimulationEngine",
    "RandomStreams",
    "spawn_rng",
]
