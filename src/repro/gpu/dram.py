"""Banked DRAM timing model (optional, higher-fidelity memory backend).

The default memory path models a controller as a bandwidth server plus a
jittered fixed latency, which is sufficient for the paper's methodology
(Section V consumes IPC and stall fractions, not DRAM microbehaviour).
This module provides the next fidelity step for ablations: per-controller
banks with row buffers, giving

* row-buffer **hits** (same row as the open one): column access only;
* row **misses** (bank idle or different row): precharge + activate +
  column access;
* bank-level parallelism: requests to different banks overlap, requests
  to one bank serialize.

Select it with ``GPUConfig(dram_model="banked")``; the flat model remains
the calibrated default (``"simple"``).
"""

from __future__ import annotations

from typing import List

from repro.exceptions import ConfigurationError
from repro.gpu.fifo import new_queue, queue_state, serve


class DramBank:
    """One DRAM bank: a FIFO service queue plus an open-row register."""

    def __init__(self, t_cas: float, t_ras: float, t_rp: float) -> None:
        self.queue = new_queue()
        self.open_row: int = -1
        self.t_cas = t_cas            # column access (row-buffer hit)
        self.t_ras = t_ras            # activate
        self.t_rp = t_rp              # precharge
        self.row_hits = 0
        self.row_misses = 0

    def access(self, now: float, row: int) -> float:
        """Serve one access to ``row``; returns the data-ready time."""
        if row == self.open_row:
            self.row_hits += 1
            service = self.t_cas
        else:
            self.row_misses += 1
            service = self.t_rp + self.t_ras + self.t_cas
            self.open_row = row
        return serve(self.queue, now, service)

    def state_dict(self) -> dict:
        return {
            "server": queue_state(self.queue),
            "open_row": self.open_row,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
        }


class BankedDram:
    """A memory controller with ``num_banks`` banks and a shared data bus.

    The bus is the bandwidth constraint (as in the simple model); the
    banks add row-locality-dependent latency and bank conflicts on top.
    """

    def __init__(
        self,
        bytes_per_cycle: float,
        num_banks: int = 32,
        row_bytes: int = 2048,
        line_size: int = 128,
        t_cas: float = 20.0,
        t_ras: float = 20.0,
        t_rp: float = 20.0,
        name: str = "dram",
    ) -> None:
        if num_banks < 1:
            raise ConfigurationError(f"{name}: need >= 1 bank, got {num_banks}")
        if row_bytes < line_size:
            raise ConfigurationError(
                f"{name}: row must hold at least one line"
            )
        self.bus = new_queue()
        self.banks: List[DramBank] = [
            DramBank(t_cas, t_ras, t_rp) for _ in range(num_banks)
        ]
        self._bus_service = line_size / bytes_per_cycle
        self._lines_per_row = row_bytes // line_size
        self.accesses = 0

    def bank_of(self, line: int) -> int:
        # Consecutive rows interleave across banks (standard mapping).
        return (line // self._lines_per_row) % len(self.banks)

    def row_of(self, line: int) -> int:
        return line // (self._lines_per_row * len(self.banks))

    def access(self, now: float, line: int) -> float:
        """Serve one line read; returns the time data leaves the bus."""
        self.accesses += 1
        bank = self.banks[self.bank_of(line)]
        ready = bank.access(now, self.row_of(line))
        return serve(self.bus, ready, self._bus_service)

    def state_dict(self) -> dict:
        return {
            "bus": queue_state(self.bus),
            "banks": [bank.state_dict() for bank in self.banks],
            "accesses": self.accesses,
        }

    @property
    def row_hit_rate(self) -> float:
        hits = sum(b.row_hits for b in self.banks)
        total = hits + sum(b.row_misses for b in self.banks)
        return hits / total if total else 0.0
