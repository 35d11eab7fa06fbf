"""Unit helpers shared across the simulator and the prediction core.

All byte quantities in the code base are plain integers in bytes, all
bandwidths are floats in bytes per second, and all clocks are floats in
hertz.  These helpers exist so that configuration code reads like the
paper's tables (``34 * MB``, ``2.7 * TBPS``) instead of raw powers of two.
"""

from __future__ import annotations

# --- capacity ---------------------------------------------------------------
KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# --- bandwidth (decimal, as vendor datasheets and the paper use) ------------
GBPS = 1e9
TBPS = 1e12

# --- frequency ---------------------------------------------------------------
MHZ = 1e6
GHZ = 1e9


def bytes_per_cycle(bandwidth_bps: float, clock_hz: float) -> float:
    """Convert a bandwidth in bytes/second into bytes per clock cycle."""
    if clock_hz <= 0:
        raise ValueError(f"clock must be positive, got {clock_hz}")
    return bandwidth_bps / clock_hz


def format_bytes(num_bytes: float) -> str:
    """Human-readable capacity string, e.g. ``34.0 MB`` or ``512 KB``."""
    if num_bytes >= GB:
        return f"{num_bytes / GB:g} GB"
    if num_bytes >= MB:
        return f"{num_bytes / MB:g} MB"
    if num_bytes >= KB:
        return f"{num_bytes / KB:g} KB"
    return f"{num_bytes:g} B"


def format_bandwidth(bps: float) -> str:
    """Human-readable bandwidth string, e.g. ``2.7 TB/s`` or ``145 GB/s``."""
    if bps >= TBPS:
        return f"{bps / TBPS:g} TB/s"
    return f"{bps / GBPS:g} GB/s"
