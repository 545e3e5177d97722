"""Rigorous lithography simulation pipeline (the golden-data path of Fig. 1)."""

from .pipeline import LithographySimulator, SimulatedClip
from .process_window import ProcessWindowResult, sweep_process_window
from ..telemetry.trace import StageTimer, Tracer

__all__ = [
    "LithographySimulator",
    "SimulatedClip",
    "StageTimer",
    "Tracer",
    "ProcessWindowResult",
    "sweep_process_window",
]
