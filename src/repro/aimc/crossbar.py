"""Functional model of the analog crossbar and its tiled execution.

:class:`Crossbar` models one ``rows x cols`` PCM crossbar performing
matrix-vector multiplications in the analog domain: DAC conversion of the
input vector, analog accumulation over the (noisy) conductances, IR-drop
attenuation, and ADC conversion of the bit-line outputs.

:class:`TiledMatrix` handles weight matrices larger than one crossbar by
splitting them along rows and columns onto several crossbars — exactly the
multi-cluster mapping of Sec. V.1 — and summing the row-split partial
results, which in the real system is the digital reduction performed by the
RISC-V cores.  Two execution backends are provided:

* ``backend="vectorized"`` (default) — all tiles of one shape are stacked
  into a single :class:`~repro.aimc.pcm.StackedPCMArray` (sliced, never
  zero-padded) and the whole broadcast-over-column-splits /
  reduce-over-row-splits MVM is one batched einsum per shape group, with
  DAC/ADC quantisation applied once per layer batch and effective weights
  served from the device-state cache whenever reads are deterministic;
* ``backend="reference"`` — the original per-tile Python loop over
  :class:`Crossbar` objects, kept as the golden model the vectorized engine
  is tested against.

With noise disabled the two backends agree to float rounding; with
converters or noise enabled they differ slightly by construction (the
vectorized engine quantises per layer batch, the reference per tile).

Random-draw contract of the vectorized backend.  :class:`AnalogExecutor`
spawns one ``SeedSequence`` child per analog node, in graph order, and
programs the layers concurrently on a thread pool, one thread per CPU the
process may run on.  When it draws the parameters itself, it draws them
on its own thread, one layer after another from the one generator of
:func:`~repro.dnn.numerics.draw_parameters`, and queues each layer's
programming as soon as that layer is drawn.  The constructor returns once
every layer is drawn and queued; the first use of a crossbar waits for
all of them, joins the pool's threads and re-raises the first
programming error.  Each layer draws only from generators seeded by its
own child and writes only its own arrays, so the bytes do not depend on
the pool size or the schedule.  A :class:`TiledMatrix` spawns one child
per tile group — row segments outer, column segments inner: interior,
right edge, bottom edge, corner — plus a last one for the ADC noise, and
programs the groups in that order.  A read-noise MVM is a read, then a
multiply.  The read takes the groups in the same order, each filling g+'s
noise stream, then g-'s, tile by tile (see :mod:`repro.aimc.pcm`), and
writes each group's weights straight into that group's view of one
C-contiguous dense operand.  The multiply (DAC, GEMM, IR drop, ADC) draws
only the ADC noise.  Deterministic reads draw nothing.

A forward of :class:`AnalogExecutor` draws its layers' noisy reads ahead,
on a second pool of the same size that lives as long as the forward.  It
reads the layers in the order the forward reaches them, each once, so
every generator draws what it would draw inline, whatever the pool size.
The forward's own thread allocates every operand and runs every multiply.
Reads start at the first analog layer, so an input that the graph
rejects draws nothing.  A forward that raises after that has still drawn
every read it started.  ``tests/test_aimc_device_pin.py`` pins the
resulting bytes and checks that a one-worker pool gives the same ones.

:class:`AnalogExecutor` plugs the tiled analog MVM into the graph reference
executor so a whole network can be evaluated through the crossbar model and
compared against its digital reference.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent import futures
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..dnn.graph import Graph, Node
from ..dnn.numerics import LayerParameters, ReferenceExecutor, draw_parameters
from .noise import NoiseModel
from .pcm import PCMArray, SeedLike, StackedPCMArray

#: valid values of the ``backend`` argument of :class:`TiledMatrix` /
#: :class:`AnalogExecutor`.
BACKENDS = ("vectorized", "reference")


def _available_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, which
    does not count a container's CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_workers(n_layers: int) -> int:
    """Threads of a pool that works on ``n_layers`` layers: one per CPU the
    process may run on, never more than the layers, at least one."""
    return max(1, min(_available_cpus(), n_layers))


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Promote an integer (or ``None``) seed to an independent stream root."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


class Crossbar:
    """One analog crossbar of ``rows x cols`` PCM differential cell pairs."""

    def __init__(
        self,
        rows: int = 256,
        cols: int = 256,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = None,
    ):
        if rows <= 0 or cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.noise = noise if noise is not None else NoiseModel.typical()
        if isinstance(seed, np.random.SeedSequence):
            rng_seed, array_seed = seed.spawn(2)
        else:
            rng_seed = array_seed = seed
        self._rng = np.random.default_rng(rng_seed)
        self._array = PCMArray(rows, cols, cell=self.noise.cell, seed=array_seed)
        self._weight_rows = 0
        self._weight_cols = 0

    # ------------------------------------------------------------------ #
    # Programming
    # ------------------------------------------------------------------ #
    def program(self, weights: np.ndarray) -> None:
        """Program a weight matrix (padded with zeros if smaller than the array)."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2D matrix")
        w_rows, w_cols = weights.shape
        if w_rows > self.rows or w_cols > self.cols:
            raise ValueError(
                f"weight matrix {weights.shape} does not fit a "
                f"{self.rows}x{self.cols} crossbar"
            )
        padded = np.zeros((self.rows, self.cols))
        padded[:w_rows, :w_cols] = weights
        self._array.program(padded, ideal=not self.noise.programming_noise)
        self._weight_rows = w_rows
        self._weight_cols = w_cols

    @property
    def is_programmed(self) -> bool:
        """Whether weights have been programmed into the crossbar."""
        return self._array.is_programmed

    @property
    def utilization(self) -> float:
        """Fraction of cells holding parameters (local mapping efficiency)."""
        if not self.is_programmed:
            return 0.0
        return (self._weight_rows * self._weight_cols) / (self.rows * self.cols)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def mvm(self, inputs: np.ndarray) -> np.ndarray:
        """Analog matrix-vector multiplication.

        ``inputs`` may be a single vector of length ``weight_rows`` or a
        batch of shape ``(n, weight_rows)``; the result has matching shape
        with ``weight_cols`` outputs.
        """
        if not self.is_programmed:
            raise RuntimeError("the crossbar has not been programmed")
        inputs = np.asarray(inputs, dtype=float)
        single = inputs.ndim == 1
        batch = inputs[None, :] if single else inputs
        if batch.shape[1] != self._weight_rows:
            raise ValueError(
                f"input length {batch.shape[1]} does not match programmed "
                f"rows {self._weight_rows}"
            )
        noise = self.noise
        if noise.converter_quantization:
            batch = noise.dac.convert(batch)
        weights = self._array.effective_weights(
            time_s=noise.drift_time_s, read_noise=noise.read_noise
        )[: self._weight_rows, : self._weight_cols]
        outputs = batch @ weights
        outputs = outputs * noise.ir_drop_factor
        if noise.converter_quantization:
            outputs = noise.adc.convert(outputs, rng=self._rng)
        return outputs[0] if single else outputs


@dataclass(frozen=True)
class TileCoordinate:
    """Position of one crossbar tile inside a split weight matrix."""

    row_index: int
    col_index: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the weight slice held by this tile."""
        return (self.row_stop - self.row_start, self.col_stop - self.col_start)


class _TileGroup:
    """A rectangular sub-grid of equally-shaped tiles in one stacked array.

    A split weight matrix decomposes into at most four such groups: the
    full-size interior tiles plus (when the splits are ragged) the right
    edge, the bottom edge, and the corner.  Every group maps onto a
    contiguous slice of the input rows and output columns, so its MVM —
    the einsum ``bir,ijrc->bjc`` over the stacked conductances — collapses
    into a single GEMM against the tiles laid out as one dense
    ``(n_row * rows, n_col * cols)`` block.

    The dense layout is cached alongside the device-state cache: it is
    rebuilt only when :meth:`StackedPCMArray.effective_weights` returns a
    fresh tensor (reprogram or drift-time change), which the identity of
    the returned array tracks exactly.  Read-noise reads are written
    straight into a fresh dense operand through :meth:`stacked_view`.
    """

    __slots__ = (
        "row_offset",
        "col_offset",
        "n_row",
        "n_col",
        "tile_rows",
        "tile_cols",
        "array",
    )

    def __init__(
        self,
        row_offset: int,
        col_offset: int,
        n_row: int,
        n_col: int,
        tile_rows: int,
        tile_cols: int,
        array: StackedPCMArray,
    ):
        self.row_offset = row_offset
        self.col_offset = col_offset
        self.n_row = n_row
        self.n_col = n_col
        self.tile_rows = tile_rows
        self.tile_cols = tile_cols
        self.array = array

    def stacked_view(self, dense: np.ndarray) -> np.ndarray:
        """This group's block of ``dense`` as an ``(n_row, n_col, r, c)`` view.

        The view has the stacked arrays' tile order, so writing a stacked
        tensor into it lays the tiles out as one dense block.
        """
        block = dense[
            self.row_offset : self.row_offset + self.n_row * self.tile_rows,
            self.col_offset : self.col_offset + self.n_col * self.tile_cols,
        ]
        return block.reshape(
            self.n_row, self.tile_rows, self.n_col, self.tile_cols
        ).transpose(0, 2, 1, 3)


def _split_segments(total: int, block: int) -> List[Tuple[int, int, int]]:
    """Decompose ``total`` into ``(offset, n_blocks, block_size)`` segments.

    At most two segments: the run of full ``block``-sized splits and, when
    ``total`` is not divisible, the single ragged remainder.
    """
    n_full = total // block
    segments: List[Tuple[int, int, int]] = []
    if n_full:
        segments.append((0, n_full, block))
    remainder = total - n_full * block
    if remainder:
        segments.append((n_full * block, 1, remainder))
    return segments


class TiledMatrix:
    """A weight matrix split across multiple crossbars (row and column splits).

    Row splits produce partial output sums that must be reduced digitally;
    column splits require broadcasting the same inputs to several crossbars.
    This mirrors the multi-cluster layer mapping of Sec. V.1.  See the
    module docstring for the two execution backends.
    """

    def __init__(
        self,
        weights: np.ndarray,
        crossbar_rows: int = 256,
        crossbar_cols: int = 256,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        backend: str = "vectorized",
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2D matrix")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.weights_shape = weights.shape
        self.crossbar_rows = crossbar_rows
        self.crossbar_cols = crossbar_cols
        self.backend = backend
        self.noise = noise if noise is not None else NoiseModel.typical()
        rows, cols = weights.shape
        self.n_row_splits = math.ceil(rows / crossbar_rows)
        self.n_col_splits = math.ceil(cols / crossbar_cols)
        self.tile_coordinates: List[TileCoordinate] = []
        for row_index in range(self.n_row_splits):
            for col_index in range(self.n_col_splits):
                row_start = row_index * crossbar_rows
                row_stop = min(rows, row_start + crossbar_rows)
                col_start = col_index * crossbar_cols
                col_stop = min(cols, col_start + crossbar_cols)
                self.tile_coordinates.append(
                    TileCoordinate(
                        row_index, col_index, row_start, row_stop, col_start, col_stop
                    )
                )
        root = _seed_sequence(seed if seed is not None else 0)
        self._tiles: List[Tuple[TileCoordinate, Crossbar]] = []
        self._groups: List[_TileGroup] = []
        self._dense: Optional[np.ndarray] = None
        self._dense_src: Optional[List[np.ndarray]] = None
        if backend == "reference":
            self._build_reference(weights, root)
        else:
            self._build_vectorized(weights, root)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_reference(self, weights: np.ndarray, root: np.random.SeedSequence) -> None:
        """Per-tile :class:`Crossbar` objects, one independent stream each."""
        children = root.spawn(len(self.tile_coordinates))
        for coordinate, child in zip(self.tile_coordinates, children):
            crossbar = Crossbar(
                self.crossbar_rows, self.crossbar_cols, noise=self.noise, seed=child
            )
            crossbar.program(
                weights[
                    coordinate.row_start : coordinate.row_stop,
                    coordinate.col_start : coordinate.col_stop,
                ]
            )
            self._tiles.append((coordinate, crossbar))

    def _build_vectorized(self, weights: np.ndarray, root: np.random.SeedSequence) -> None:
        """Stacked-tensor representation: one array per tile shape group."""
        rows, cols = weights.shape
        row_segments = _split_segments(rows, self.crossbar_rows)
        col_segments = _split_segments(cols, self.crossbar_cols)
        n_groups = len(row_segments) * len(col_segments)
        children = root.spawn(n_groups + 1)
        self._rng = np.random.default_rng(children[-1])
        index = 0
        for row_offset, n_row, tile_rows in row_segments:
            for col_offset, n_col, tile_cols in col_segments:
                block = weights[
                    row_offset : row_offset + n_row * tile_rows,
                    col_offset : col_offset + n_col * tile_cols,
                ]
                stacked = block.reshape(n_row, tile_rows, n_col, tile_cols)
                stacked = stacked.transpose(0, 2, 1, 3)  # (n_row, n_col, r, c)
                array = StackedPCMArray(
                    (n_row, n_col),
                    tile_rows,
                    tile_cols,
                    cell=self.noise.cell,
                    seed=children[index],
                )
                array.program(stacked, ideal=not self.noise.programming_noise)
                self._groups.append(
                    _TileGroup(
                        row_offset, col_offset, n_row, n_col, tile_rows, tile_cols, array
                    )
                )
                index += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def tiles(self) -> List[Tuple[TileCoordinate, Crossbar]]:
        """Per-tile ``(coordinate, Crossbar)`` pairs of the reference backend.

        The vectorized backend has no per-tile objects — raising here keeps
        'wrong backend' loudly distinct from 'no tiles'.  Use
        :attr:`tile_coordinates` for geometry on either backend.
        """
        if self.backend != "reference":
            raise RuntimeError(
                "per-tile Crossbar objects exist only on backend='reference'; "
                "use tile_coordinates for the tile geometry"
            )
        return self._tiles

    @property
    def n_crossbars(self) -> int:
        """Total number of crossbars used by this matrix."""
        return len(self.tile_coordinates)

    @property
    def utilization(self) -> float:
        """Average cell utilisation across the tiles."""
        rows, cols = self.weights_shape
        allocated = self.n_crossbars * self.crossbar_rows * self.crossbar_cols
        return (rows * cols) / allocated

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def mvm(self, inputs: np.ndarray) -> np.ndarray:
        """Tiled MVM: broadcast over column splits, reduce over row splits."""
        inputs = np.asarray(inputs, dtype=float)
        single = inputs.ndim == 1
        batch = inputs[None, :] if single else inputs
        rows, cols = self.weights_shape
        if batch.shape[1] != rows:
            raise ValueError(
                f"input length {batch.shape[1]} does not match matrix rows {rows}"
            )
        if self.backend == "reference":
            output = self._mvm_reference(batch)
        else:
            output = self._mvm_vectorized(batch, self._effective_dense())
        return output[0] if single else output

    def _mvm_reference(self, batch: np.ndarray) -> np.ndarray:
        """Seed semantics: one Python-level ``Crossbar.mvm`` call per tile."""
        output = np.zeros((batch.shape[0], self.weights_shape[1]))
        for coordinate, crossbar in self._tiles:
            tile_inputs = batch[:, coordinate.row_start : coordinate.row_stop]
            partial = crossbar.mvm(tile_inputs)
            output[:, coordinate.col_start : coordinate.col_stop] += partial
        return output

    def _effective_dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Effective weights of every tile assembled into one dense matrix.

        A read-noise read draws fresh noise every time: each group's read
        is written straight into its view of ``out`` — a C-contiguous
        float array of the matrix's shape, a new one when not given —
        group by group, so the draws happen in group order.  It touches
        nothing of this matrix but its stacked arrays, so it may run on
        another thread than the multiply.  Deterministic reads ignore
        ``out`` and come from the stacked arrays' device-state cache; this
        GEMM layout is cached alongside it and rebuilt only when a stacked
        array hands back a fresh tensor — reprogramming or a drift-time
        change — which the identity of the returned arrays tracks exactly
        (the cached sources are kept referenced, so ``is`` cannot alias
        recycled objects).
        """
        noise = self.noise
        if not noise.deterministic_read:
            dense = np.empty(self.weights_shape) if out is None else out
            for group in self._groups:
                group.array.effective_weights(
                    time_s=noise.drift_time_s,
                    read_noise=True,
                    out=group.stacked_view(dense),
                )
            return dense
        stacks = [
            group.array.effective_weights(time_s=noise.drift_time_s)
            for group in self._groups
        ]
        if self._dense_src is not None and all(
            new is old for new, old in zip(stacks, self._dense_src)
        ):
            return self._dense
        dense = np.empty(self.weights_shape)
        for group, stacked in zip(self._groups, stacks):
            group.stacked_view(dense)[...] = stacked
        self._dense = dense
        self._dense_src = stacks
        return dense

    def _mvm_vectorized(self, batch: np.ndarray, dense: np.ndarray) -> np.ndarray:
        """One batched GEMM per layer against the read ``dense``; converters
        applied once per batch.

        The broadcast-over-column-splits / reduce-over-row-splits einsum
        ``bir,ijrc->bjc`` collapses into ``batch @ dense`` once the shape
        groups are assembled into one dense matrix: the GEMM's own reduction
        performs the digital sum over row splits.
        """
        noise = self.noise
        if noise.converter_quantization:
            batch = noise.dac.convert(batch)
        output = batch @ dense
        if noise.ir_drop_factor != 1.0:
            output *= noise.ir_drop_factor
        if noise.converter_quantization:
            output = noise.adc.convert(output, rng=self._rng)
        return output


class _ReadAhead:
    """The ``mvm_hook`` of one forward, reading the layers of ``order`` ahead.

    ``order`` holds the node ids of the layers whose reads draw noise, in
    the order the forward reaches them.  At the layer in position ``p``,
    the hook first submits to ``pool`` every read up to position ``p +
    depth`` not yet submitted.  It allocates each read's operand itself, on
    the forward's thread: a worker thread that allocated would grow a
    malloc arena of its own.  Then it waits for this layer's read and
    multiplies.  The other layers read inline, in :meth:`TiledMatrix.mvm`.
    """

    def __init__(
        self,
        tiled: Dict[int, TiledMatrix],
        order: List[int],
        pool: futures.Executor,
        depth: int,
    ):
        self._tiled = tiled
        self._order = order
        self._position = {node_id: position for position, node_id in enumerate(order)}
        self._pool = pool
        self._depth = depth
        self._reads: Dict[int, futures.Future] = {}
        self._submitted = 0

    def mvm(self, node: Node, inputs: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
        tiled = self._tiled[node.node_id]
        position = self._position.get(node.node_id)
        if position is None:
            return tiled.mvm(inputs)
        while self._submitted < min(position + self._depth + 1, len(self._order)):
            node_id = self._order[self._submitted]
            ahead = self._tiled[node_id]
            self._reads[node_id] = self._pool.submit(
                ahead._effective_dense, np.empty(ahead.weights_shape)
            )
            self._submitted += 1
        return tiled._mvm_vectorized(inputs, self._reads.pop(node.node_id).result())


class AnalogExecutor:
    """Runs a whole DNN graph through the tiled analog crossbar model.

    ``backend`` selects the tiled execution engine (see :class:`TiledMatrix`);
    layer seeds are spawned from one :class:`numpy.random.SeedSequence` so
    every layer — and every tile within a layer — draws from an independent
    stream.  Two kinds of work run on thread pools as large as the number
    of CPUs the process may run on (never more than the number of layers);
    numpy's generator fills and large array loops release the interpreter
    lock:

    * the constructor programs the layers concurrently.  When it is not
      handed ``parameters``, it draws them itself, layer by layer in graph
      order (:func:`~repro.dnn.numerics.draw_parameters`, the bytes of
      :func:`~repro.dnn.numerics.initialize_parameters`), and queues each
      layer's programming as soon as that layer is drawn.  It returns once
      every layer is drawn and queued, so programming goes on while the
      caller works, e.g. runs the digital reference on
      :attr:`parameters`.  The first call that needs a crossbar
      (:meth:`run`, :meth:`run_output`, :attr:`total_crossbars`,
      :meth:`compare_with_reference`) waits for every layer and joins the
      programming threads, so none outlives it; if a layer's programming
      raised, that call and every later one re-raises the first such
      error, in graph order;
    * on the vectorized backend with read noise, each forward (:meth:`run`,
      :meth:`run_output`) opens its own pool and draws the layers' noisy
      reads on it, in the order the forward reaches them, at most as many
      layers ahead of the layer being computed as the pool has threads.
      The forward's own thread allocates each read's C-contiguous operand
      and runs the DAC, GEMM, IR drop and ADC.  Reads start at the first
      analog layer, so an input the graph rejects draws nothing; a forward
      that raises after that has already drawn every read it started.

    Elsewhere (the reference backend, deterministic reads) each layer
    reads inline, in its MVM.  The graph executor of a forward lives only
    as long as the forward, so no reference cycle holds the conductances
    once the last reference to this executor is gone.
    """

    def __init__(
        self,
        graph: Graph,
        parameters: Optional[Dict[int, LayerParameters]] = None,
        noise: Optional[NoiseModel] = None,
        crossbar_rows: int = 256,
        crossbar_cols: int = 256,
        seed: int = 0,
        backend: str = "vectorized",
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        graph.ensure_shapes()
        self.graph = graph
        self.noise = noise if noise is not None else NoiseModel.typical()
        self.backend = backend
        self.crossbar_rows = crossbar_rows
        self.crossbar_cols = crossbar_cols
        analog_nodes = graph.analog_nodes()
        layer_seeds = np.random.SeedSequence(seed).spawn(len(analog_nodes))
        # depthwise layers fall back to the digital reference
        seeds = {
            node.node_id: layer_seed
            for node, layer_seed in zip(analog_nodes, layer_seeds)
            if getattr(node.layer, "groups", 1) == 1
        }
        if parameters is None:
            self.parameters: Dict[int, LayerParameters] = {}
            drawn = draw_parameters(graph, seed)
        else:
            self.parameters = parameters
            drawn = ((node_id, parameters[node_id]) for node_id in seeds)
        # Each layer draws only from its own seed's generators and writes
        # only its own arrays, so the bytes do not depend on the schedule.
        # A layer is queued as soon as it is drawn, so programming overlaps
        # the rest of the draw and whatever the caller does next.
        pool = futures.ThreadPoolExecutor(_pool_workers(len(seeds)))
        programming: Dict[int, futures.Future] = {}
        try:
            for node_id, layer in drawn:
                # fills a drawn table; a given one holds the layer already
                self.parameters.setdefault(node_id, layer)
                if node_id in seeds:
                    programming[node_id] = pool.submit(
                        TiledMatrix,
                        layer.weight_matrix,
                        crossbar_rows=crossbar_rows,
                        crossbar_cols=crossbar_cols,
                        noise=self.noise,
                        seed=seeds[node_id],
                        backend=backend,
                    )
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        pool.shutdown(wait=False)
        self._programming: Optional[
            Tuple[futures.ThreadPoolExecutor, Dict[int, futures.Future]]
        ] = (pool, programming)
        self._programmed: Dict[int, TiledMatrix] = {}
        self._reference_executor: Optional[ReferenceExecutor] = None
        self._reference_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def _tiled(self) -> Dict[int, TiledMatrix]:
        """Every programmed layer, in graph order.

        Until programming has succeeded, each access waits for every layer,
        joins the programming threads and then re-raises the first error in
        graph order, if any.
        """
        if self._programming is not None:
            pool, programming = self._programming
            pool.shutdown()
            self._programmed = {
                node_id: future.result() for node_id, future in programming.items()
            }
            self._programming = None
        return self._programmed

    @property
    def total_crossbars(self) -> int:
        """Total crossbars instantiated for the network."""
        return sum(tiled.n_crossbars for tiled in self._tiled.values())

    def run(self, input_tensor: np.ndarray) -> Dict[int, np.ndarray]:
        """Run the graph through the analog model; outputs keyed by node id."""
        with self._forward() as executor:
            return executor.run(input_tensor)

    def run_output(self, input_tensor: np.ndarray) -> np.ndarray:
        """Run the graph and return the output node's tensor."""
        with self._forward() as executor:
            return executor.run_output(input_tensor)

    @contextlib.contextmanager
    def _forward(self) -> Iterator[ReferenceExecutor]:
        """A graph executor for one forward, with its read pool open."""
        tiled = self._tiled
        order: List[int] = []
        if self.backend == "vectorized" and not self.noise.deterministic_read:
            order = [
                node.node_id
                for node in self.graph.topological_order()
                if node.node_id in tiled
            ]
        workers = _pool_workers(len(order))
        with futures.ThreadPoolExecutor(workers) as pool:
            reads = _ReadAhead(tiled, order, pool, depth=workers)
            yield ReferenceExecutor(
                self.graph, parameters=self.parameters, mvm_hook=reads.mvm
            )

    def compare_with_reference(self, input_tensor: np.ndarray) -> float:
        """RMS error of the analog output against the digital reference.

        The digital executor — and its output for the last input seen — are
        cached, so repeated comparisons (e.g. sweeping noise settings on the
        same image) pay for the digital forward pass only once.
        """
        input_tensor = np.asarray(input_tensor, dtype=float)
        if self._reference_executor is None:
            self._reference_executor = ReferenceExecutor(
                self.graph, parameters=self.parameters
            )
        cached = self._reference_cache
        if (
            cached is None
            or cached[0].shape != input_tensor.shape
            or not np.array_equal(cached[0], input_tensor)
        ):
            digital_output = self._reference_executor.run_output(input_tensor)
            self._reference_cache = (input_tensor.copy(), digital_output)
        digital_output = self._reference_cache[1]
        analog_output = self.run_output(input_tensor)
        return float(np.sqrt(np.mean((analog_output - digital_output) ** 2)))
