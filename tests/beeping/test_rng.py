"""Unit and property tests for the seed-derivation discipline."""

from hypothesis import given
from hypothesis import strategies as st

from repro.beeping.rng import (
    DRAW_BEEP,
    DRAW_IDS,
    DRAW_LOSS,
    DRAW_MARK,
    DRAW_SPURIOUS,
    DRAW_VALUE,
    RngStream,
    counter_uniforms,
    counter_values,
    derive_seed,
    derive_seed_block,
    seed_array,
    spawn_rng,
    uniform_block,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_path_order_matters(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_master_seed_matters(self):
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_empty_path(self):
        assert derive_seed(7) == derive_seed(7)
        assert derive_seed(7) != derive_seed(8)

    def test_result_is_64_bit(self):
        for seed in (0, 1, 2**64 - 1, 123456789):
            value = derive_seed(seed, 0)
            assert 0 <= value < 2**64

    def test_negative_indices_allowed(self):
        assert derive_seed(1, -1) != derive_seed(1, 1)


class TestDeriveSeedBlock:
    """The vectorised block must equal the scalar chain bit for bit —
    this is the fleet engine's seed contract."""

    def test_matches_scalar_derivation(self):
        seeds = derive_seed_block(42, 3, count=16)
        assert [int(s) for s in seeds] == [
            derive_seed(42, 3, t) for t in range(16)
        ]

    def test_matches_scalar_with_deep_path(self):
        seeds = derive_seed_block(7, 1, 2, 3, count=5)
        assert [int(s) for s in seeds] == [
            derive_seed(7, 1, 2, 3, t) for t in range(5)
        ]

    def test_matches_scalar_with_empty_path(self):
        seeds = derive_seed_block(99, count=4)
        assert [int(s) for s in seeds] == [derive_seed(99, t) for t in range(4)]

    def test_negative_path_elements(self):
        seeds = derive_seed_block(5, -2, count=3)
        assert [int(s) for s in seeds] == [
            derive_seed(5, -2, t) for t in range(3)
        ]

    def test_dtype_and_range(self):
        seeds = derive_seed_block(0, count=8)
        assert str(seeds.dtype) == "uint64"
        assert all(0 <= int(s) < 2**64 for s in seeds)

    def test_empty_block(self):
        assert len(derive_seed_block(1, 2, count=0)) == 0

    def test_rejects_negative_count(self):
        import pytest

        with pytest.raises(ValueError, match="count"):
            derive_seed_block(1, count=-1)

    def test_rejects_negative_start(self):
        import pytest

        with pytest.raises(ValueError, match="start"):
            derive_seed_block(1, count=2, start=-1)


class TestShardBoundaries:
    """The sweep orchestrator's seed contract: a block split across shard
    offsets must equal the unsharded block bit for bit, so a sharded sweep
    consumes exactly the seeds the sequential loop would."""

    def test_offset_block_matches_unsharded_slice(self):
        whole = derive_seed_block(42, 5, count=100)
        shard = derive_seed_block(42, 5, count=30, start=40)
        assert [int(s) for s in shard] == [int(s) for s in whole[40:70]]

    def test_partition_concatenates_to_whole_block(self):
        import numpy as np

        whole = derive_seed_block(1303, 2, 1, count=64)
        parts = [
            derive_seed_block(1303, 2, 1, count=hi - lo, start=lo)
            for lo, hi in ((0, 7), (7, 32), (32, 33), (33, 64))
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_offset_entries_match_scalar_derivation(self):
        shard = derive_seed_block(7, 3, count=5, start=11)
        assert [int(s) for s in shard] == [
            derive_seed(7, 3, 11 + t) for t in range(5)
        ]

    def test_shard_width_one_matches_scalar(self):
        for t in (0, 1, 63, 1000):
            block = derive_seed_block(9, count=1, start=t)
            assert int(block[0]) == derive_seed(9, t)

    def test_offset_window_far_past_2_32(self):
        shard = derive_seed_block(7, count=4, start=2**40)
        assert [int(s) for s in shard] == [
            derive_seed(7, 2**40 + t) for t in range(4)
        ]


class TestCounterUniforms:
    """The stateless uniform fabric: pure, shaped, and well distributed."""

    def test_deterministic_and_shaped(self):
        import numpy as np

        a = counter_uniforms([3, 4], 7, DRAW_BEEP, 5)
        b = counter_uniforms([3, 4], 7, DRAW_BEEP, 5)
        assert a.shape == (2, 5)
        assert a.dtype == np.float64
        assert np.array_equal(a, b)

    def test_scalar_seed_gives_one_row(self):
        import numpy as np

        block = counter_uniforms([9, 10], 2, DRAW_BEEP, 6)
        row = counter_uniforms(10, 2, DRAW_BEEP, 6)
        assert row.shape == (6,)
        assert np.array_equal(row, block[1])

    def test_matrix_seeds_give_matrix_blocks(self):
        """The armada's (trials, graphs) seed matrices broadcast: entry
        (t, g) equals the scalar call for that seed."""
        import numpy as np

        seeds = np.arange(6, dtype=np.uint64).reshape(2, 3)
        block = counter_uniforms(seeds, 4, DRAW_BEEP, 5)
        assert block.shape == (2, 3, 5)
        for t in range(2):
            for g in range(3):
                assert np.array_equal(
                    block[t, g],
                    counter_uniforms(int(seeds[t, g]), 4, DRAW_BEEP, 5),
                )

    def test_rounds_kinds_and_seeds_are_independent_axes(self):
        import numpy as np

        base = counter_uniforms(5, 0, DRAW_BEEP, 8)
        assert not np.array_equal(base, counter_uniforms(6, 0, DRAW_BEEP, 8))
        assert not np.array_equal(base, counter_uniforms(5, 1, DRAW_BEEP, 8))
        assert not np.array_equal(base, counter_uniforms(5, 0, DRAW_LOSS, 8))
        assert not np.array_equal(
            base, counter_uniforms(5, 0, DRAW_SPURIOUS, 8)
        )

    def test_range_is_half_open_unit_interval(self):
        block = counter_uniforms(range(64), 3, DRAW_BEEP, 128)
        assert float(block.min()) >= 0.0
        assert float(block.max()) < 1.0

    def test_mean_and_ks_smoke(self):
        """Statistical sanity: 50k counter uniforms look uniform — mean
        and variance near 1/2 and 1/12, and the empirical CDF within a
        comfortable Kolmogorov-Smirnov band (~5x the 1% critical value)."""
        import numpy as np

        sample = counter_uniforms(range(100), 11, DRAW_BEEP, 500).ravel()
        assert abs(float(sample.mean()) - 0.5) < 0.01
        assert abs(float(sample.var()) - 1.0 / 12.0) < 0.01
        sorted_sample = np.sort(sample)
        grid = (np.arange(sample.size) + 1.0) / sample.size
        ks = float(np.abs(sorted_sample - grid).max())
        assert ks < 5.0 * 1.63 / np.sqrt(sample.size)

    def test_overflow_safe_for_huge_counters(self):
        """Rounds, kinds and seeds absorb modulo 2**64 — no Python-int
        leakage, no numpy overflow errors, still uniform-range output."""
        block = counter_uniforms(
            [2**64 - 1, 2**63], 2**63 + 12345, 2**62, 16
        )
        assert block.shape == (2, 16)
        assert float(block.min()) >= 0.0
        assert float(block.max()) < 1.0
        # And huge counters do not degenerate to a constant stream.
        assert len({float(v) for v in block.ravel()}) > 8

    def test_rejects_negative_n(self):
        import pytest

        with pytest.raises(ValueError, match="n"):
            counter_uniforms(1, 0, DRAW_BEEP, -1)

    def test_n_zero_gives_empty_rows(self):
        assert counter_uniforms([1, 2], 0, DRAW_BEEP, 0).shape == (2, 0)


class TestCounterValues:
    """The 64-bit value fabric the message-passing kernels draw from."""

    def test_locked_to_uniforms(self):
        """values >> 11 scaled by 2^-53 IS counter_uniforms, bit for bit."""
        import numpy as np

        values = counter_values([3, 4, 5], 7, DRAW_VALUE, 6)
        uniforms = counter_uniforms([3, 4, 5], 7, DRAW_VALUE, 6)
        assert values.dtype == np.uint64
        assert np.array_equal(
            (values >> np.uint64(11)) * 2.0 ** -53, uniforms
        )

    def test_draw_kinds_are_disjoint_domains(self):
        """The message kinds never collide with each other or with the
        beeping kinds on any shared (seed, round)."""
        import numpy as np

        kinds = (DRAW_BEEP, DRAW_LOSS, DRAW_SPURIOUS, DRAW_VALUE,
                 DRAW_MARK, DRAW_IDS)
        assert len(set(kinds)) == len(kinds)
        blocks = [counter_values([11, 12], 3, kind, 8) for kind in kinds]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not np.array_equal(a, b)

    def test_subsets_match_full_block(self):
        import numpy as np

        full = counter_values([5, 6, 7], 9, DRAW_VALUE, 4)
        part = counter_values([6], 9, DRAW_VALUE, 4)
        assert np.array_equal(part[0], full[1])

    def test_rejects_negative_n(self):
        import pytest

        with pytest.raises(ValueError, match="n must be"):
            counter_values([1], 0, DRAW_VALUE, -1)


class TestUniformBlock:
    """The fleet-facing block API over derived trial seeds."""

    def test_rows_match_scalar_counter_streams(self):
        import numpy as np

        block = uniform_block(
            42, 3, round_index=5, draw_kind=DRAW_BEEP, count=8, n=6
        )
        assert block.shape == (8, 6)
        for t in range(8):
            assert np.array_equal(
                block[t],
                counter_uniforms(derive_seed(42, 3, t), 5, DRAW_BEEP, 6),
            )


class TestSeedArray:
    def test_uint64_passthrough_and_int_wrapping(self):
        import numpy as np

        block = derive_seed_block(1, count=3)
        assert seed_array(block) is block
        assert seed_array(np.int64(-1)) == np.uint64(2**64 - 1)

    def test_python_ints_above_2_63(self):
        import numpy as np

        arr = seed_array([2**64 - 1, 2**63 + 5, 1])
        assert arr.dtype == np.uint64
        assert [int(v) for v in arr] == [2**64 - 1, 2**63 + 5, 1]


class TestSpawnRng:
    def test_same_path_same_stream(self):
        a = spawn_rng(9, 3, 1)
        b = spawn_rng(9, 3, 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_paths_differ(self):
        a = spawn_rng(9, 0)
        b = spawn_rng(9, 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestRngStream:
    def test_children_reproducible(self):
        stream = RngStream(11)
        assert stream.child(4).random() == RngStream(11).child(4).random()

    def test_master_seed_masked(self):
        stream = RngStream(2**70 + 3)
        assert stream.master_seed == (2**70 + 3) % 2**64


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=0, max_value=2**32), max_size=4),
)
def test_derivation_always_in_range(master, path):
    assert 0 <= derive_seed(master, *path) < 2**64


@given(st.integers(min_value=0, max_value=2**32))
def test_sibling_seeds_distinct(master):
    seeds = {derive_seed(master, i) for i in range(64)}
    assert len(seeds) == 64
