"""Fast linear-wave tier: 2-D damped scalar FDTD on gate geometry masks."""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    ".scalar": ("ScalarWaveSimulator", "WaveSource", "run_steady_state"),
    ".calibration": (
        "CalibrationResult", "calibrate_wavelength", "measure_guide_wavelength",
    ),
})

__all__ = [
    "ScalarWaveSimulator",
    "WaveSource",
    "run_steady_state",
    "CalibrationResult",
    "calibrate_wavelength",
    "measure_guide_wavelength",
]
