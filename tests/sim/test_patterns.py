"""Tests for the access-pattern primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import patterns
from repro.util.rng import make_rng

FOOTPRINT = 2048
LENGTH = 4000


def in_range(indices):
    return indices.min() >= 0 and indices.max() < FOOTPRINT


class TestPrimitives:
    def test_uniform_bounds_and_spread(self):
        idx = patterns.uniform(make_rng(1), FOOTPRINT, LENGTH)
        assert in_range(idx)
        assert len(np.unique(idx)) > FOOTPRINT // 2

    def test_zipf_is_skewed(self):
        idx = patterns.zipf(make_rng(1), FOOTPRINT, LENGTH, exponent=1.2)
        assert in_range(idx)
        _, counts = np.unique(idx, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[:10].sum() > LENGTH * 0.1  # hot pages dominate

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            patterns.zipf(make_rng(0), FOOTPRINT, 10, exponent=0)

    def test_sequential_advances(self):
        idx = patterns.sequential(
            make_rng(1), FOOTPRINT, LENGTH, streams=1, stride=1, repeats_per_page=1
        )
        assert in_range(idx)
        deltas = np.diff(idx) % FOOTPRINT
        assert (deltas == 1).mean() > 0.99

    def test_sequential_repeats(self):
        idx = patterns.sequential(
            make_rng(1), FOOTPRINT, 100, streams=1, repeats_per_page=4
        )
        assert (np.diff(idx)[:3] == 0).all()

    def test_sequential_multiple_streams(self):
        idx = patterns.sequential(make_rng(3), FOOTPRINT, LENGTH, streams=4)
        assert in_range(idx)

    def test_sequential_validation(self):
        with pytest.raises(ValueError):
            patterns.sequential(make_rng(0), FOOTPRINT, 10, streams=0)

    def test_gaussian_walk_clusters(self):
        idx = patterns.gaussian_walk(make_rng(1), FOOTPRINT, LENGTH, 8.0, 0.5)
        assert in_range(idx)
        # Consecutive accesses are near each other (modulo wraps).
        deltas = np.abs(np.diff(idx))
        deltas = np.minimum(deltas, FOOTPRINT - deltas)
        assert np.median(deltas) < 32

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            patterns.gaussian_walk(make_rng(0), FOOTPRINT, 10, 0.0)

    def test_pointer_chase_visits_before_repeat(self):
        idx = patterns.pointer_chase(
            make_rng(1), 256, 256, restart_every=10_000
        )
        assert len(np.unique(idx)) == 256  # a full permutation cycle

    def test_pointer_chase_validation(self):
        with pytest.raises(ValueError):
            patterns.pointer_chase(make_rng(0), 16, 4, restart_every=0)

    def test_strided(self):
        idx = patterns.strided(make_rng(1), FOOTPRINT, 100, stride=16)
        deltas = np.diff(idx) % FOOTPRINT
        assert (deltas == 16).all()

    def test_mixture_preserves_component_order(self):
        seq = np.arange(512, dtype=np.int64)
        rand = patterns.uniform(make_rng(2), FOOTPRINT, 512)
        mixed = patterns.mixture(make_rng(2), 600, [(0.5, seq), (0.5, rand)])
        assert len(mixed) == 600
        # Extract the sequential component's values: they appear in
        # increasing order (allowing recycling resets).
        from_seq = [v for v in mixed if v < 512]
        assert len(from_seq) > 0

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            patterns.mixture(make_rng(0), 10, [])
        with pytest.raises(ValueError):
            patterns.mixture(make_rng(0), 10, [(0.0, np.array([1]))])

    def test_determinism(self):
        a = patterns.uniform(make_rng(5), FOOTPRINT, 100)
        b = patterns.uniform(make_rng(5), FOOTPRINT, 100)
        assert (a == b).all()


class PerBlockMixture(patterns.MixtureState):
    """Reference mixture: one draw, one ``searchsorted`` and one
    component ``take`` per block, as the mixture ran before it planned
    its chunks."""

    def _component_take(self, choice, count):
        state = self._states[choice]
        if state is None:
            state = self._factories[choice]()
            self._states[choice] = state
        taken = state.take(count)
        self._consumed[choice] += count
        return taken

    def _emit(self, n):
        out = np.empty(n, dtype=np.int64)
        filled = 0
        position = self.position
        while filled < n:
            if self._pending is not None:
                choice, owed = self._pending
                self._pending = None
            else:
                choice = int(np.searchsorted(
                    self._cdf, self._rng.random(), "right"))
                remaining = self._lengths[choice] - self._consumed[choice]
                owed = min(self.BLOCK, self._length - position, remaining)
                if owed <= 0:
                    self._states[choice] = None
                    self._consumed[choice] = 0
                    owed = min(self.BLOCK, self._length - position,
                               self._lengths[choice])
            emit = min(owed, n - filled)
            out[filled:filled + emit] = self._component_take(choice, emit)
            filled += emit
            position += emit
            if emit < owed:
                self._pending = (choice, owed - emit)
        return out


def _components(weights, stream_lengths, seed):
    """Mixture components on their own generators: uniform, sequential
    and pointer-chase streams in turn."""
    kinds = [
        lambda rng: patterns.UniformState(rng, FOOTPRINT),
        lambda rng: patterns.SequentialState(rng, FOOTPRINT, 2, 1, 3),
        lambda rng: patterns.PointerChaseState(rng, FOOTPRINT, 100),
    ]
    return [
        (weight,
         lambda i=i: kinds[i % len(kinds)](make_rng(seed * 16 + i)),
         stream_length)
        for i, (weight, stream_length) in enumerate(
            zip(weights, stream_lengths))
    ]


@st.composite
def mixtures(draw):
    count = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.05, 20.0), min_size=count,
                            max_size=count))
    # Some streams shorter than a block, so components recycle.
    stream_lengths = draw(st.lists(st.integers(1, 400), min_size=count,
                                   max_size=count))
    length = draw(st.integers(1, 3000))
    chunks = []
    left = length
    while left:
        chunk = min(left, draw(st.integers(1, 700)))
        chunks.append(chunk)
        left -= chunk
    return weights, stream_lengths, length, chunks, draw(st.integers(0, 99))


class TestMixturePlan:
    @given(mixtures())
    @settings(max_examples=120, deadline=None)
    def test_planned_chunks_match_the_per_block_mixture(self, case):
        weights, stream_lengths, length, chunks, seed = case
        planned = patterns.MixtureState(
            make_rng(seed), FOOTPRINT, length,
            _components(weights, stream_lengths, seed))
        reference = PerBlockMixture(
            make_rng(seed), FOOTPRINT, length,
            _components(weights, stream_lengths, seed))
        for chunk in chunks:
            assert planned.take(chunk).tolist() == (
                reference.take(chunk).tolist())
            assert (planned._rng.bit_generator.state
                    == reference._rng.bit_generator.state)
            assert planned._pending == reference._pending
            assert planned._consumed == reference._consumed

    def test_taking_past_the_length_raises(self):
        state = patterns.MixtureState(
            make_rng(1), FOOTPRINT, 10, _components([1.0], [50], 1))
        state.take(10)
        with pytest.raises(ValueError):
            state.take(1)
