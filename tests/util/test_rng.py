"""Determinism tests for the RNG helpers."""

import pytest

from repro.util.rng import BatchedDraws, make_rng, spawn_rng


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(5).integers(0, 1 << 30, 10)
        b = make_rng(5).integers(0, 1 << 30, 10)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(5).integers(0, 1 << 30, 10)
        b = make_rng(6).integers(0, 1 << 30, 10)
        assert (a != b).any()

    def test_default_seed_is_stable(self):
        a = make_rng().integers(0, 1 << 30, 4)
        b = make_rng(None).integers(0, 1 << 30, 4)
        assert (a == b).all()


class TestSpawnRng:
    def test_same_path_same_stream(self):
        a = spawn_rng(1, "x", 2).integers(0, 1 << 30, 8)
        b = spawn_rng(1, "x", 2).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_different_paths_differ(self):
        a = spawn_rng(1, "x").integers(0, 1 << 30, 8)
        b = spawn_rng(1, "y").integers(0, 1 << 30, 8)
        assert (a != b).any()

    def test_child_independent_of_parent_draws(self):
        parent_seed = 9
        child1 = spawn_rng(parent_seed, "w").integers(0, 100, 4)
        # Drawing from another sub-stream must not perturb the first.
        spawn_rng(parent_seed, "other").integers(0, 100, 1000)
        child2 = spawn_rng(parent_seed, "w").integers(0, 100, 4)
        assert (child1 == child2).all()


class TestBatchedDraws:
    """The batched helper against one ``Generator`` call per value."""

    # (method, args): fragmentation orders of every profile, the
    # low/medium/high chunk sizes, and the mixture's block choices.
    DRAWS = [
        ("integers", (0, 2)), ("integers", (0, 4)), ("integers", (0, 5)),
        ("integers", (0, 6)), ("integers", (1, 17)), ("integers", (1, 513)),
        ("integers", (512, 65_537)), ("random", ()),
    ]

    # Zero draws, mid-batch stops in the first and a later batch, and
    # stops on the first and second batch boundaries (64, 64 + 128).
    COUNTS = [0, 1, 37, 64, 100, 192, 5_000]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("method,args", DRAWS)
    def test_values_and_final_state_match_single_draws(
            self, method, args, count):
        single, batched = make_rng(7), make_rng(7)
        expected = [getattr(single, method)(*args) for _ in range(count)]
        with BatchedDraws(batched, method, *args) as draw:
            got = [draw() for _ in range(count)]
        assert got == expected
        assert {type(value) for value in got} <= {int, float}
        assert batched.bit_generator.state == single.bit_generator.state

    def test_close_is_idempotent_and_reopens_where_it_stopped(self):
        single, batched = make_rng(3), make_rng(3)
        draw = BatchedDraws(batched, "integers", 0, 5)
        first = [draw() for _ in range(10)]
        draw.close()
        draw.close()
        second = [draw() for _ in range(300)]
        draw.close()
        expected = [int(single.integers(0, 5)) for _ in range(310)]
        assert first + second == expected
        assert batched.bit_generator.state == single.bit_generator.state

    def test_leaving_by_exception_still_rewinds(self):
        single, batched = make_rng(5), make_rng(5)
        with pytest.raises(KeyError):
            with BatchedDraws(batched, "random") as draw:
                for _ in range(70):
                    draw()
                raise KeyError("stop")
        single.random(70)
        assert batched.bit_generator.state == single.bit_generator.state
