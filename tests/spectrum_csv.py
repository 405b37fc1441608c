"""Reads spectrum CSV files written by `shornoise.spectrum.write_spectrum_csv`."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    """Parse a spectrum CSV back into its probability column."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != "c,probability":
        raise ValueError(f"{path} is not a spectrum CSV")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])
