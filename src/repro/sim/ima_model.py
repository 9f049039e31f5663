"""Timing model of the IMA subsystem (Fig. 1C / Fig. 3 of the paper).

One IMA *job* processes one tile of a layer's IFM: for every output pixel of
the tile an input vector is streamed from L1 into the input buffer
(*stream-in*), converted by the DACs, multiplied against the crossbar in the
analog domain, converted back by the ADCs (*compute*), and the result is
streamed back to L1 (*stream-out*).  The input and output buffers are
duplicated, so with double buffering the streaming of MVM ``i+1``/``i-1``
overlaps the analog computation of MVM ``i``; the per-MVM cost is then the
maximum of the three phases, exactly as described in Sec. IV.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.cluster import ClusterSpec
from ..arch.ima import IMASpec


@dataclass(frozen=True)
class IMAJob:
    """One tile-granularity job submitted to an IMA.

    Attributes
    ----------
    n_mvms:
        Number of analog MVMs in the job (output pixels of the tile).
    rows_used / cols_used:
        Active rows (input-vector length) and columns (outputs per MVM) of
        the crossbar for this layer slice; both are bounded by the physical
        crossbar dimensions.
    bytes_per_input_element / bytes_per_output_element:
        Activation storage width; the paper streams 8-bit inputs, while the
        raw ADC outputs are wider (2 bytes) before requantisation.
    """

    n_mvms: int
    rows_used: int
    cols_used: int
    bytes_per_input_element: int = 1
    bytes_per_output_element: int = 2

    def __post_init__(self) -> None:
        if self.n_mvms < 0:
            raise ValueError("n_mvms cannot be negative")
        if self.rows_used <= 0 or self.cols_used <= 0:
            raise ValueError("rows_used and cols_used must be positive")
        if self.bytes_per_input_element <= 0 or self.bytes_per_output_element <= 0:
            raise ValueError("element sizes must be positive")

    @property
    def macs(self) -> int:
        """MAC operations performed by the job."""
        return self.n_mvms * self.rows_used * self.cols_used


class IMATimingModel:
    """Converts :class:`IMAJob` descriptors into cycle counts."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.spec: IMASpec = cluster.ima

    # ------------------------------------------------------------------ #
    # Per-phase costs
    # ------------------------------------------------------------------ #
    def analog_cycles_per_mvm(self) -> int:
        """Cycles of one analog MVM (DAC + crossbar + ADC), 130 ns at 1 GHz."""
        return self.cluster.analog_latency_cycles

    def stream_in_cycles_per_mvm(self, job: IMAJob) -> int:
        """Cycles to stream one input vector from L1 into the input buffer."""
        rows = min(job.rows_used, self.spec.rows)
        return self.spec.stream_cycles(rows * job.bytes_per_input_element)

    def stream_out_cycles_per_mvm(self, job: IMAJob) -> int:
        """Cycles to stream one MVM result from the output buffer to L1."""
        cols = min(job.cols_used, self.spec.cols)
        return self.spec.stream_cycles(cols * job.bytes_per_output_element)

    # ------------------------------------------------------------------ #
    # Whole-job costs
    # ------------------------------------------------------------------ #
    def job_cycles(self, job: IMAJob, double_buffering: bool = True) -> int:
        """Total cycles for one IMA job.

        With double buffering the three phases are pipelined across MVMs, so
        the steady-state cost per MVM is the maximum of the phases and the
        non-overlapped head/tail adds one stream-in plus one stream-out.
        Without double buffering the phases are strictly sequential.
        """
        if job.n_mvms == 0:
            return self.spec.config_cycles
        analog = self.analog_cycles_per_mvm()
        stream_in = self.stream_in_cycles_per_mvm(job)
        stream_out = self.stream_out_cycles_per_mvm(job)
        if double_buffering:
            steady = max(analog, stream_in, stream_out)
            total = steady * job.n_mvms + stream_in + stream_out
        else:
            total = (analog + stream_in + stream_out) * job.n_mvms
        return self.spec.config_cycles + total
