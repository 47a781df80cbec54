"""Deterministic random-number helpers.

Every stochastic component in the package draws from a
``numpy.random.Generator`` created here, so that experiments are exactly
reproducible from a single integer seed.  Sub-streams are derived with
``spawn_rng`` so that changing one component's draw count does not
perturb another component's stream.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Package-wide default seed used by experiments unless overridden.
DEFAULT_SEED = 20170624  # ISCA'17 conference dates


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a generator from an integer seed (or the package default)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_rng(parent_seed: int | None, *keys: object) -> np.random.Generator:
    """Derive an independent sub-stream from a parent seed and a key path.

    The key path (e.g. ``("workload", "gups", 3)``) is hashed into the
    seed sequence with a *stable* hash (CRC32), so the same path yields
    the same stream in every process — Python's built-in ``hash`` is
    salted per interpreter and must not be used here.
    """
    base = DEFAULT_SEED if parent_seed is None else parent_seed
    material = [base] + [
        zlib.crc32(str(k).encode("utf-8")) & 0xFFFFFFFF for k in keys
    ]
    return np.random.default_rng(np.random.SeedSequence(material))


class BatchedDraws:
    """One ``Generator`` method's values, served one at a time from batches.

    ``draw = BatchedDraws(rng, "integers", 0, 5)`` makes each ``draw()``
    return what ``int(rng.integers(0, 5))`` would have, as a plain
    Python scalar, while ``rng`` is called once per batch instead of
    once per value.  Closing it (leaving its ``with`` block) leaves
    ``rng`` exactly where that many single draws would: the state from
    before the last batch is restored and the count used from that
    batch is drawn again.

    This is exact only for methods whose ``size=k`` call consumes the
    bit stream like ``k`` single calls — ``integers`` and ``random`` on
    numpy's PCG64 do (``tests/util/test_rng.py``) — and only when
    nothing else draws from ``rng`` while the helper is open.
    """

    _FIRST_BATCH = 64
    _MAX_BATCH = 1 << 14

    def __init__(self, rng: np.random.Generator, method: str, *args) -> None:
        self._rng = rng
        self._draw = getattr(rng, method)
        self._args = args
        self._values: list = []
        self._next = 0
        self._size = self._FIRST_BATCH
        #: ``rng``'s state before the current batch (None: no batch).
        self._state: dict | None = None

    def __call__(self):
        if self._next == len(self._values):
            self._state = self._rng.bit_generator.state
            self._values = self._draw(*self._args, size=self._size).tolist()
            self._next = 0
            # Batches grow geometrically, so a short run draws little
            # past what it uses and a long one few times.
            self._size = min(2 * self._size, self._MAX_BATCH)
        value = self._values[self._next]
        self._next += 1
        return value

    def close(self) -> None:
        """Rewind ``rng`` to where the values served leave it."""
        # A batch used to its end already left ``rng`` where it belongs.
        if self._state is not None and self._next < len(self._values):
            self._rng.bit_generator.state = self._state
            self._draw(*self._args, size=self._next)
        self._state = None
        self._values = []
        self._next = 0

    def __enter__(self) -> "BatchedDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
