"""Runtime profiling over the virtual clock (the pyinstrument substitute)."""

from repro.profiling.profiler import PhaseProfiler, PHASES

__all__ = ["PHASES", "PhaseProfiler"]
