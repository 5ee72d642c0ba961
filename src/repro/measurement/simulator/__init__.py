"""Packet-level discrete-event measurement simulator.

The paper models attacks at the level of the manipulation vector ``m``;
this substrate shows the same attacks as *packet behaviour*: source-routed
probe packets hop node to node, each link adds its ground-truth delay (plus
optional jitter), and malicious nodes intercept probes per-path to add
delay or drop them.  Averaged per-path probe delays become the observed
measurement vector ``y'`` that tomography inverts.
"""

from repro.measurement.simulator.adversary import PathManipulationAgent
from repro.measurement.simulator.events import EventQueue
from repro.measurement.simulator.network_sim import (
    MeasurementRecord,
    NetworkSimulator,
    Probe,
)

__all__ = [
    "EventQueue",
    "PathManipulationAgent",
    "MeasurementRecord",
    "NetworkSimulator",
    "Probe",
]
