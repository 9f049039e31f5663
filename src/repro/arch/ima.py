"""Specification of the In-Memory-computing Accelerator (IMA).

The IMA described in Sec. II.2 of the paper is built around a Phase-Change
Memory (PCM) crossbar used as a computational memory: programmable resistors
sit at the cross-points of word lines (rows) and bit lines (columns), so a
matrix-vector multiplication (MVM) is performed in the analog domain in a
single step.  DACs drive the word lines, ADCs read the bit lines, and a set
of streamers with programmable address generation moves data between the L1
scratchpad and the IMA input/output buffers.

This module only carries the *specification* (sizes, latencies, port counts);
the timing behaviour lives in :mod:`repro.sim.ima_model` and the functional
analog numerics in :mod:`repro.aimc.crossbar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IMASpec:
    """Static parameters of one IMA instance.

    Attributes
    ----------
    rows:
        Number of word lines (input dimension of the analog MVM).  The paper
        uses 256, matching the HERMES core it calibrates against.
    cols:
        Number of bit lines (output dimension of the analog MVM).
    cell_bits:
        Equivalent bit resolution of one PCM cell (the paper assumes up to
        8-bit equivalent cells).
    analog_latency_ns:
        Latency of one analog MVM (DAC + crossbar + ADC), 130 ns in the
        paper (Khaddam-Aljameh et al., HERMES core).
    dac_bits / adc_bits:
        Resolution of the digital-to-analog and analog-to-digital converters.
    n_streamer_ports:
        Number of read and write streamer ports towards the cluster L1
        (16 in Table I).  Each port moves ``streamer_port_bytes`` per cycle.
    streamer_port_bytes:
        Bytes moved per streamer port per cycle.
    input_buffer_depth / output_buffer_depth:
        Number of jobs each buffer can hold; 2 enables double buffering,
        which the paper uses to fully overlap streaming with computation.
    config_cycles:
        Fixed cost, in cluster cycles, for the master core to configure and
        trigger one IMA job.
    """

    rows: int = 256
    cols: int = 256
    cell_bits: int = 8
    analog_latency_ns: float = 130.0
    dac_bits: int = 8
    adc_bits: int = 8
    n_streamer_ports: int = 16
    streamer_port_bytes: int = 1
    input_buffer_depth: int = 2
    output_buffer_depth: int = 2
    config_cycles: int = 50

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        if self.analog_latency_ns <= 0:
            raise ValueError("analog latency must be positive")
        if self.n_streamer_ports <= 0:
            raise ValueError("at least one streamer port is required")
        if self.input_buffer_depth < 1 or self.output_buffer_depth < 1:
            raise ValueError("buffer depths must be >= 1")

    # ------------------------------------------------------------------ #
    # Capacity
    # ------------------------------------------------------------------ #
    @property
    def capacity_params(self) -> int:
        """Number of parameters storable on one crossbar (rows x cols)."""
        return self.rows * self.cols

    # ------------------------------------------------------------------ #
    # Peak throughput
    # ------------------------------------------------------------------ #
    @property
    def macs_per_mvm(self) -> int:
        """Multiply-accumulate operations performed by one full MVM."""
        return self.rows * self.cols

    @property
    def ops_per_mvm(self) -> int:
        """Operations (1 MAC = 2 ops) performed by one full MVM."""
        return 2 * self.macs_per_mvm

    @property
    def peak_ops_per_second(self) -> float:
        """Peak analog throughput of one IMA in operations per second."""
        return self.ops_per_mvm / (self.analog_latency_ns * 1e-9)

    @property
    def peak_tops(self) -> float:
        """Peak analog throughput of one IMA in TOPS."""
        return self.peak_ops_per_second / 1e12

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    @property
    def stream_bandwidth_bytes_per_cycle(self) -> int:
        """Aggregate streamer bandwidth towards L1, in bytes per cycle."""
        return self.n_streamer_ports * self.streamer_port_bytes

    def stream_cycles(self, n_bytes: int) -> int:
        """Cycles to stream ``n_bytes`` between L1 and an IMA buffer."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes == 0:
            return 0
        return math.ceil(n_bytes / self.stream_bandwidth_bytes_per_cycle)

    # ------------------------------------------------------------------ #
    # Mapping helpers
    # ------------------------------------------------------------------ #
    def row_splits(self, weight_rows: int) -> int:
        """How many crossbars are needed along the row (input) dimension."""
        if weight_rows <= 0:
            raise ValueError("weight_rows must be positive")
        return math.ceil(weight_rows / self.rows)

    def col_splits(self, weight_cols: int) -> int:
        """How many crossbars are needed along the column (output) dimension."""
        if weight_cols <= 0:
            raise ValueError("weight_cols must be positive")
        return math.ceil(weight_cols / self.cols)

    def crossbars_needed(self, weight_rows: int, weight_cols: int) -> int:
        """Total crossbars needed to hold a ``weight_rows x weight_cols`` matrix."""
        return self.row_splits(weight_rows) * self.col_splits(weight_cols)

    def utilization(self, weight_rows: int, weight_cols: int) -> float:
        """Fraction of allocated crossbar cells actually holding parameters.

        This is the *local mapping* efficiency of Sec. VI: a layer whose
        weight matrix does not tile the crossbar exactly wastes cells.
        """
        used = weight_rows * weight_cols
        allocated = self.crossbars_needed(weight_rows, weight_cols) * self.capacity_params
        return used / allocated


DEFAULT_IMA_SPEC = IMASpec()
"""The 256x256, 130 ns IMA used throughout the paper (Table I)."""
