"""Access-pattern primitives for synthetic workload models.

Each primitive produces a stream of *logical page indices* in
``[0, footprint)``; the workload layer maps those through the VMA layout
to virtual page numbers.  The primitives are the building blocks of the
per-application models in :mod:`repro.sim.workloads`: what matters for
TLB behaviour is the page-level reuse distance distribution, which these
reproduce — uniform random (no reuse), Zipf (skewed reuse), sequential
sweeps (compulsory-only), Gaussian walks (a moving working set), and
pointer chases (random permutation cycles).

Every primitive exists in two forms sharing one implementation:

* a **resumable state** (:class:`UniformState`, :class:`ZipfState`, ...)
  whose :meth:`PatternState.take` emits the next ``n`` indices.  States
  are *chunk-invariant*: concatenating ``take`` calls of any sizes is
  bit-identical to a single ``take`` of the total, which is what lets
  the streaming trace pipeline emit chunk N without regenerating chunks
  ``0..N-1`` (enforced by ``tests/sim/test_streaming_differential.py``);
* the classic **one-shot function** (:func:`uniform`, :func:`zipf`, ...)
  which builds a state and takes everything at once.

Chunk invariance relies on two properties.  First, all *setup* draws
(stream cursors, permutations, walk origins) happen at state
construction, before any streaming draw.  Second, numpy ``Generator``
sampling is element-sequential, so splitting ``rng.random`` /
``rng.integers`` / ``rng.standard_normal`` across calls concatenates to
the single-call stream.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.util.rng import BatchedDraws


class PatternState:
    """A resumable index stream over ``[0, footprint)``.

    Subclasses draw any setup randomness in ``__init__`` and emit
    indices from :meth:`take`; ``position`` tracks how many indices have
    been emitted so far.
    """

    def __init__(self, footprint: int) -> None:
        if footprint <= 0:
            raise ValueError("footprint must be positive")
        self.footprint = footprint
        self.position = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` indices (int64, each in ``[0, footprint)``)."""
        if n <= 0:
            raise ValueError("n must be positive")
        out = self._emit(n)
        self.position += n
        return out

    def _emit(self, n: int) -> np.ndarray:
        raise NotImplementedError


class UniformState(PatternState):
    """Uniform random pages — gups-style, defeats any TLB."""

    def __init__(self, rng: np.random.Generator, footprint: int) -> None:
        super().__init__(footprint)
        self._rng = rng

    def _emit(self, n: int) -> np.ndarray:
        return self._rng.integers(0, self.footprint, size=n, dtype=np.int64)


class ZipfState(PatternState):
    """Zipf-distributed page popularity over a random permutation.

    Hot pages are scattered across the footprint (as heap objects are),
    not clustered at low addresses.  The permutation is drawn at
    construction; per-chunk draws are inverse-CDF samples
    (``searchsorted`` on the precomputed rank CDF — the same sampling
    rule ``Generator.choice(p=...)`` applies, minus its per-call
    normalisation and validation passes over the footprint).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        footprint: int,
        exponent: float = 0.8,
    ) -> None:
        super().__init__(footprint)
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self._rng = rng
        ranks = np.arange(1, footprint + 1, dtype=np.float64)
        weights = ranks ** -exponent
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._permutation = rng.permutation(footprint).astype(np.int64)

    def _emit(self, n: int) -> np.ndarray:
        draws = self._cdf.searchsorted(self._rng.random(n), side="right")
        return self._permutation[draws]


class SequentialState(PatternState):
    """Interleaved sequential sweeps — stencil/streaming kernels.

    ``streams`` concurrent cursors start at random offsets and advance
    by ``stride`` pages after ``repeats_per_page`` touches, wrapping at
    the footprint.  After the cursors are drawn the stream is a pure
    function of the global position, so chunks are computed with
    closed-form cursor arithmetic instead of a per-reference loop.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        footprint: int,
        streams: int = 1,
        stride: int = 1,
        repeats_per_page: int = 4,
    ) -> None:
        super().__init__(footprint)
        if streams <= 0 or stride <= 0 or repeats_per_page <= 0:
            raise ValueError("streams, stride, repeats_per_page must be positive")
        self._cursors = rng.integers(0, footprint, size=streams, dtype=np.int64)
        self._streams = streams
        self._stride = stride
        self._repeats = repeats_per_page

    def _emit(self, n: int) -> np.ndarray:
        # Global position i sits in pick-slot i // repeats; slots rotate
        # round-robin over streams, and a stream's cursor has advanced
        # once per completed rotation.
        pos = self.position + np.arange(n, dtype=np.int64)
        slot = pos // self._repeats
        stream = slot % self._streams
        rounds = slot // self._streams
        return (self._cursors[stream] + self._stride * rounds) % self.footprint


class GaussianWalkState(PatternState):
    """Accesses clustered around a slowly drifting centre.

    Models frontier-style computations (astar, omnetpp event sets):
    strong temporal locality with a working set that migrates.  The walk
    origin is drawn at construction; each chunk draws one interleaved
    block of standard normals (even elements drive the drift, odd the
    offsets), so any chunking consumes the generator identically, and
    the drift accumulator carries across chunks with the exact
    sequential-summation rounding of a single ``cumsum``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        footprint: int,
        sigma_pages: float = 64.0,
        drift: float = 2.0,
    ) -> None:
        super().__init__(footprint)
        if sigma_pages <= 0:
            raise ValueError("sigma must be positive")
        self._rng = rng
        self._sigma = sigma_pages
        self._drift = drift
        self._centre = float(rng.integers(0, footprint))

    def _emit(self, n: int) -> np.ndarray:
        raw = self._rng.standard_normal(2 * n)
        steps = self._drift * raw[0::2]
        offsets = self._sigma * raw[1::2]
        # Seeding the accumulation with the carried centre reproduces
        # the rounding of one uninterrupted cumsum over all chunks.
        walk = np.cumsum(np.concatenate(([self._centre], steps)))[1:]
        self._centre = float(walk[-1])
        centre = walk % self.footprint
        return ((centre + offsets) % self.footprint).astype(np.int64)


class PointerChaseState(PatternState):
    """Walk a fixed random permutation cycle — linked data structures.

    Every page is visited before any repeats (reuse distance equals the
    footprint), with periodic restarts from random positions.  The cycle
    is a single Hamiltonian circuit over a random page order, so a
    restart-free segment is a contiguous (wrapping) slice of that order
    and chunks are emitted as slices instead of a per-reference loop.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        footprint: int,
        restart_every: int = 4096,
    ) -> None:
        super().__init__(footprint)
        if restart_every <= 0:
            raise ValueError("restart_every must be positive")
        self._rng = rng
        self._restart = restart_every
        self._order = rng.permutation(footprint).astype(np.int64)
        self._index_of = np.empty(footprint, dtype=np.int64)
        self._index_of[self._order] = np.arange(footprint, dtype=np.int64)
        self._node = int(rng.integers(0, footprint))

    def _emit(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        position = self.position
        while filled < n:
            to_restart = self._restart - position % self._restart
            seg = min(n - filled, to_restart)
            start = self._index_of[self._node]
            idx = (start + np.arange(seg, dtype=np.int64)) % self.footprint
            out[filled : filled + seg] = self._order[idx]
            filled += seg
            position += seg
            if position % self._restart == 0:
                self._node = int(self._rng.integers(0, self.footprint))
            else:
                self._node = int(self._order[(start + seg) % self.footprint])
        return out


class StridedState(PatternState):
    """A single strided sweep (large-row matrix traversals)."""

    def __init__(
        self, rng: np.random.Generator, footprint: int, stride: int = 16
    ) -> None:
        super().__init__(footprint)
        self._start = int(rng.integers(0, footprint))
        self._stride = stride

    def _emit(self, n: int) -> np.ndarray:
        pos = self.position + np.arange(n, dtype=np.int64)
        return (self._start + pos * self._stride) % self.footprint


class MixtureState(PatternState):
    """Interleave component streams with the given weights.

    Each component is ``(weight, make_state, stream_length)`` where
    ``make_state()`` builds a fresh :class:`PatternState` for that
    component; accesses are drawn from components in weight-proportional
    interleaved blocks of 64, keeping each component's internal order
    (so sequential components stay sequential).  An exhausted component
    is recycled by rebuilding its state, which — states being
    deterministic in their construction seed — replays the identical
    stream without keeping it in memory.  A block split by a chunk
    boundary resumes in the next chunk, so chunking never perturbs the
    block structure.

    A chunk is planned before any component runs: one uniform draw per
    block picks its component (served in batches by
    :class:`~repro.util.rng.BatchedDraws`, so ``rng`` must be the
    mixture's alone — components draw from their own generators), and
    the pending-block and recycle bookkeeping runs on Python ints.  Then
    each component makes one ``take`` per recycle epoch in the chunk and
    the results are gathered into block order, which chunk invariance
    makes equal to taking block by block.
    """

    BLOCK = 64

    def __init__(
        self,
        rng: np.random.Generator,
        footprint: int,
        length: int,
        components: list[tuple[float, object, int]],
    ) -> None:
        super().__init__(footprint)
        if length <= 0:
            raise ValueError("length must be positive")
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for w, _, _ in components], dtype=np.float64)
        if (weights <= 0).any():
            raise ValueError("weights must be positive")
        for _, _, stream_length in components:
            if stream_length <= 0:
                raise ValueError("component stream lengths must be positive")
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        self._rng = rng
        self._cdf = cdf.tolist()
        self._length = length
        self._factories = [make_state for _, make_state, _ in components]
        self._lengths = [stream_length for _, _, stream_length in components]
        self._states: list[PatternState | None] = [None] * len(components)
        self._consumed = [0] * len(components)
        #: (component, references still owed) of a block a previous
        #: chunk boundary cut short.
        self._pending: tuple[int, int] | None = None

    def _emit(self, n: int) -> np.ndarray:
        block, length, lengths = self.BLOCK, self._length, self._lengths
        consumed = self._consumed
        # One take per (component, recycle epoch): [component, recycled
        # first, references].  ``current`` maps a component to its open
        # take; each block records its take and its offset inside it.
        takes: list[list] = []
        current: dict[int, int] = {}
        block_take: list[int] = []
        block_offset: list[int] = []
        block_count: list[int] = []
        filled = 0
        position = self.position
        pending, self._pending = self._pending, None
        with BatchedDraws(self._rng, "random") as uniform:
            while filled < n:
                recycled = False
                if pending is not None:
                    choice, owed = pending
                    pending = None
                else:
                    choice = bisect_right(self._cdf, uniform())
                    owed = min(block, length - position,
                               lengths[choice] - consumed[choice])
                    if owed <= 0:
                        # Component exhausted; recycle it from the start.
                        # The fresh block must still fit inside the
                        # stream — short streams (tiny traces) hold fewer
                        # than ``BLOCK`` entries.
                        recycled = True
                        consumed[choice] = 0
                        owed = min(block, length - position, lengths[choice])
                emit = min(owed, n - filled)
                if emit <= 0:
                    raise ValueError("mixture taken past its length")
                index = current.get(choice)
                if index is None or recycled:
                    index = current[choice] = len(takes)
                    takes.append([choice, recycled, 0])
                block_take.append(index)
                block_offset.append(takes[index][2])
                block_count.append(emit)
                takes[index][2] += emit
                consumed[choice] += emit
                filled += emit
                position += emit
                if emit < owed:
                    pending = (choice, owed - emit)
        self._pending = pending

        taken = []
        states = self._states
        for choice, recycled, count in takes:
            # Drop an exhausted state before building its successor, so
            # the two are never alive at once.
            if recycled:
                states[choice] = None
            if states[choice] is None:
                states[choice] = self._factories[choice]()
            taken.append(states[choice].take(count))
        starts = np.cumsum([0] + [count for _, _, count in takes[:-1]])
        counts = np.array(block_count, dtype=np.int64)
        # Block j's references sit at its take's start plus its offset
        # in the pooled takes, and at the running block total in ``out``.
        source = starts[block_take] + np.array(block_offset, dtype=np.int64)
        shift = source - (np.cumsum(counts) - counts)
        gather = np.arange(n, dtype=np.int64) + np.repeat(shift, counts)
        return np.concatenate(taken)[gather]


# ---------------------------------------------------------------------------
# One-shot functions (states taken in a single chunk)
# ---------------------------------------------------------------------------


def uniform(rng: np.random.Generator, footprint: int, length: int) -> np.ndarray:
    """Uniform random pages — gups-style, defeats any TLB."""
    return UniformState(rng, footprint).take(length)


def zipf(
    rng: np.random.Generator,
    footprint: int,
    length: int,
    exponent: float = 0.8,
) -> np.ndarray:
    """Zipf-distributed page popularity over a random permutation."""
    return ZipfState(rng, footprint, exponent).take(length)


def sequential(
    rng: np.random.Generator,
    footprint: int,
    length: int,
    streams: int = 1,
    stride: int = 1,
    repeats_per_page: int = 4,
) -> np.ndarray:
    """Interleaved sequential sweeps — stencil/streaming kernels."""
    return SequentialState(rng, footprint, streams, stride, repeats_per_page).take(
        length
    )


def gaussian_walk(
    rng: np.random.Generator,
    footprint: int,
    length: int,
    sigma_pages: float = 64.0,
    drift: float = 2.0,
) -> np.ndarray:
    """Accesses clustered around a slowly drifting centre."""
    return GaussianWalkState(rng, footprint, sigma_pages, drift).take(length)


def pointer_chase(
    rng: np.random.Generator,
    footprint: int,
    length: int,
    restart_every: int = 4096,
) -> np.ndarray:
    """Walk a fixed random permutation cycle — linked data structures."""
    return PointerChaseState(rng, footprint, restart_every).take(length)


def strided(
    rng: np.random.Generator,
    footprint: int,
    length: int,
    stride: int = 16,
) -> np.ndarray:
    """A single strided sweep (large-row matrix traversals)."""
    return StridedState(rng, footprint, stride).take(length)


def mixture(
    rng: np.random.Generator,
    length: int,
    components: list[tuple[float, np.ndarray]],
) -> np.ndarray:
    """Interleave pre-materialized component streams (eager form).

    Each component is ``(weight, indices)``; accesses are drawn from
    components in weight-proportional interleaved blocks of 64, keeping
    each component's internal order (so sequential components stay
    sequential).  The workload layer composes :class:`MixtureState`
    directly so component streams never have to be materialized; this
    eager wrapper serves callers that already hold arrays.
    """
    for _, stream in components:
        if hasattr(stream, "__len__") and len(stream) == 0:
            raise ValueError("component streams must be non-empty")
    footprint = max(
        (int(np.max(stream)) + 1 for _, stream in components if len(stream)),
        default=1,
    )
    state = MixtureState(
        rng,
        max(footprint, 1),
        length,
        [
            (weight, _ReplayState.factory(stream), len(stream))
            for weight, stream in components
        ],
    )
    return state.take(length)


class _ReplayState(PatternState):
    """Replays a pre-materialized array (eager ``mixture`` components)."""

    def __init__(self, stream: np.ndarray) -> None:
        super().__init__(max(int(np.max(stream)) + 1, 1) if len(stream) else 1)
        self._stream = np.asarray(stream, dtype=np.int64)

    @classmethod
    def factory(cls, stream: np.ndarray):
        return lambda: cls(stream)

    def _emit(self, n: int) -> np.ndarray:
        if self.position + n > len(self._stream):
            raise ValueError("replay stream over-consumed")
        return self._stream[self.position : self.position + n]
