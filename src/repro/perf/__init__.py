"""Re-export of the in-memory counter recorder from :mod:`repro.obs`.

The repository benchmark (``perfbench/``) imports :func:`recording` from
here; library code reports through :mod:`repro.obs` only.
"""

from repro.obs.core import PerfRecorder, recording

__all__ = ["PerfRecorder", "recording"]
