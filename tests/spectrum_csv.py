"""Reads spectrum CSV files, and formats them as `write_spectrum_csv` must."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    """Parse a spectrum CSV back into its probability column."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != "c,probability":
        raise ValueError(f"{path} is not a spectrum CSV")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def format_spectrum_csv_reference(values: np.ndarray, first_c: int = 0) -> bytes:
    """The header and one f-string row per value, numbered from first_c."""
    lines = ["c,probability"]
    for c, value in enumerate(map(float, values), start=first_c):
        lines.append(f"{c},{value:.12e}")
    return ("\n".join(lines) + "\n").encode()
