"""Tests for the frozen sweep/shard specs and their content hashes."""

import pytest

from repro.sweep.spec import (
    SPEC_FORMAT_VERSION,
    CellSpec,
    ShardSpec,
    SweepSpec,
    canonical_json,
)


def fleet_cell(**overrides):
    base = dict(
        algorithm="feedback",
        engine="fleet",
        family="gnp",
        n=100,
        edge_probability=0.5,
        trials=64,
        graphs=4,
        master_seed=1303,
    )
    base.update(overrides)
    return CellSpec(**base)


def reference_cell(**overrides):
    base = dict(
        algorithm="feedback",
        engine="reference",
        family="gnp",
        n=30,
        edge_probability=0.3,
        trials=10,
        master_seed=7,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestCellValidation:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            fleet_cell(engine="gpu")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            fleet_cell(backend="simd")

    def test_rejects_deleted_bitboard_backend_naming_the_allowed_ones(self):
        with pytest.raises(ValueError) as raised:
            fleet_cell(backend="bitboard")
        for backend in ("auto", "dense", "sparse"):
            assert repr(backend) in str(raised.value)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            fleet_cell(family="torus")

    def test_rejects_non_fleet_rule_on_fleet_engine(self):
        with pytest.raises(ValueError, match="fleet engine supports"):
            fleet_cell(algorithm="greedy")

    def test_rejects_unknown_reference_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            reference_cell(algorithm="bogus")

    def test_fleet_engine_accepts_faults(self):
        cell = fleet_cell(
            beep_loss=0.1, spurious_beep=0.1, crashes=((2, 4),)
        )
        assert not cell.fault_model().is_fault_free

    def test_rejects_bad_fault_probability(self):
        with pytest.raises(ValueError, match="beep_loss_probability"):
            fleet_cell(beep_loss=1.5)
        with pytest.raises(ValueError, match="spurious_beep_probability"):
            reference_cell(spurious_beep=-0.1)

    def test_reference_engine_accepts_faults(self):
        cell = reference_cell(beep_loss=0.05, crashes=((3, 1), (1, 0)))
        model = cell.fault_model()
        assert model.beep_loss_probability == 0.05
        assert not model.is_fault_free
        # Crash pairs are canonicalised to sorted order.
        assert cell.crashes == ((1, 0), (3, 1))

    def test_message_algorithms_are_fleet_rules(self):
        for algorithm in (
            "luby-permutation", "luby-probability", "metivier",
            "local-minimum-id",
        ):
            cell = fleet_cell(algorithm=algorithm)
            assert cell.rng_mode == "counter"

    def test_message_cell_rejects_stream_mode(self):
        with pytest.raises(ValueError, match="counter"):
            fleet_cell(algorithm="luby-permutation", rng_mode="stream")

    def test_message_cell_rejects_faults(self):
        with pytest.raises(ValueError, match="fault"):
            fleet_cell(algorithm="metivier", beep_loss=0.1)
        with pytest.raises(ValueError, match="fault"):
            fleet_cell(algorithm="luby-probability", crashes=((1, 2),))

    def test_message_algorithm_distinguishes_cell_hashes(self):
        """Algorithm is a first-class sweep axis: two cells differing
        only in the (message) algorithm must never share cached rows."""
        a = ShardSpec(fleet_cell(algorithm="luby-permutation"), 0, 8)
        b = ShardSpec(fleet_cell(algorithm="metivier"), 0, 8)
        assert a.content_hash() != b.content_hash()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="grid"):
            fleet_cell(family="grid", rows=0, cols=5)

    def test_rejects_bad_gnp(self):
        with pytest.raises(ValueError, match="edge_probability"):
            fleet_cell(edge_probability=1.5)

    def test_rejects_bad_theorem1(self):
        with pytest.raises(ValueError, match="side"):
            fleet_cell(family="theorem1", side=0)
        with pytest.raises(ValueError, match="copies"):
            fleet_cell(family="theorem1", side=4, copies=-1)

    def test_num_vertices(self):
        assert fleet_cell(n=80).num_vertices == 80
        grid = fleet_cell(family="grid", rows=4, cols=6)
        assert grid.num_vertices == 24
        # copies=0 defaults to side: side * side*(side+1)/2 vertices.
        thm = fleet_cell(family="theorem1", side=4)
        assert thm.num_vertices == 4 * 10
        assert fleet_cell(family="theorem1", side=4, copies=2).num_vertices == 20

    def test_graph_factory_matches_family(self):
        from random import Random

        gnp = fleet_cell(n=12, edge_probability=0.5).graph_factory()(Random(1))
        assert gnp.num_vertices == 12
        grid = fleet_cell(family="grid", rows=3, cols=4).graph_factory()(Random(1))
        assert grid.num_vertices == 12
        assert grid.num_edges == 3 * 3 + 2 * 4  # grid edge count
        thm = fleet_cell(family="theorem1", side=3).graph_factory()(Random(1))
        assert thm.num_vertices == 3 * 6

    def test_round_trips_through_dict(self):
        for cell in (
            fleet_cell(),
            fleet_cell(rng_mode="stream"),
            fleet_cell(backend="sparse"),
            reference_cell(beep_loss=0.1, crashes=((2, 5),)),
            fleet_cell(family="grid", rows=5, cols=5),
            fleet_cell(family="theorem1", side=6, copies=3),
        ):
            assert CellSpec.from_dict(cell.to_dict()) == cell

    def test_from_dict_defaults_missing_rng_mode(self):
        """Pre-v2 manifests have no rng_mode; they deserialise to the
        current default rather than failing."""
        payload = fleet_cell().to_dict()
        del payload["rng_mode"]
        assert CellSpec.from_dict(payload).rng_mode == "counter"


class TestShardHash:
    def test_stable_across_constructions(self):
        a = ShardSpec(fleet_cell(), 0, 32).content_hash()
        b = ShardSpec(fleet_cell(), 0, 32).content_hash()
        assert a == b

    def test_golden_hash_pins_key_format(self):
        """The cache-key format is an on-disk contract: if this changes,
        every stored shard is orphaned, so it must change deliberately
        (with a SPEC_FORMAT_VERSION bump), never by accident."""
        # v2: fleet fingerprints grew rng_mode (ISSUE 4); every v1 entry
        # is deliberately orphaned because fleet defaults moved from the
        # stream to the counter discipline.
        # v3: every fingerprint grew the churn axis (and rows the repair
        # columns), so v2 entries are deliberately orphaned.
        assert SPEC_FORMAT_VERSION == 3
        digest = ShardSpec(fleet_cell(), 0, 32).content_hash()
        assert digest == (
            "1a356a0c4cd42d6c0f9c37a2a34877b45b69b717bfd10b51a662254460b21cc6"
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"algorithm": "afek-sweep"},
            {"n": 101},
            {"edge_probability": 0.4},
            {"master_seed": 1304},
            {"trials": 65},
            {"graphs": 5},
            {"rng_mode": "stream"},
            {"max_rounds": 50_000},
            {"beep_loss": 0.1},
            {"spurious_beep": 0.05},
            {"crashes": ((2, 4),)},
        ],
    )
    def test_fleet_hash_covers_execution_fields(self, override):
        base = ShardSpec(fleet_cell(), 0, 32).content_hash()
        changed = ShardSpec(fleet_cell(**override), 0, 32).content_hash()
        assert base != changed

    def test_validate_not_in_hash(self):
        """validate can only raise, never change a row — toggling it must
        reuse the cache, not split it."""
        checked = ShardSpec(fleet_cell(validate=True), 0, 32).content_hash()
        unchecked = ShardSpec(fleet_cell(validate=False), 0, 32).content_hash()
        assert checked == unchecked

    def test_backend_not_in_hash(self):
        """The neighbour-reduction backend is pure execution strategy —
        all backends compute bit-identical rows (the conformance suite
        enforces it), so a warm cache must serve every backend."""
        base = ShardSpec(fleet_cell(), 0, 32).content_hash()
        for backend in ("dense", "sparse"):
            assert ShardSpec(fleet_cell(backend=backend), 0, 32).content_hash() == base

    def test_window_in_hash(self):
        cell = fleet_cell()
        assert (
            ShardSpec(cell, 0, 32).content_hash()
            != ShardSpec(cell, 32, 64).content_hash()
        )

    def test_theorem1_hash_covers_side_and_copies(self):
        base = fleet_cell(family="theorem1", side=6)
        assert (
            ShardSpec(base, 0, 8).content_hash()
            != ShardSpec(fleet_cell(family="theorem1", side=8), 0, 8)
            .content_hash()
        )
        assert (
            ShardSpec(base, 0, 8).content_hash()
            != ShardSpec(
                fleet_cell(family="theorem1", side=6, copies=2), 0, 8
            ).content_hash()
        )

    def test_theorem1_fields_absent_from_other_family_fingerprints(self):
        """The v3 key format is unchanged for gnp/grid cells: the new
        side/copies fields only enter the fingerprint under theorem1, so
        every pre-existing store entry keeps its hash."""
        assert "side" not in fleet_cell().execution_fingerprint()
        grid = fleet_cell(family="grid", rows=4, cols=4)
        assert "copies" not in grid.execution_fingerprint()
        thm = fleet_cell(family="theorem1", side=5).execution_fingerprint()
        assert (thm["side"], thm["copies"]) == (5, 0)

    def test_reference_hash_ignores_total_trials(self):
        """Reference trial t depends only on (master_seed, t): growing a
        sweep from 10 to 200 trials must reuse every stored shard."""
        small = ShardSpec(reference_cell(trials=10), 0, 5)
        large = ShardSpec(reference_cell(trials=200), 0, 5)
        assert small.content_hash() == large.content_hash()

    def test_reference_hash_ignores_rng_mode(self):
        """The per-node engine has its own random.Random discipline;
        rng_mode cannot change a reference row, so it must not split the
        cache."""
        counter = ShardSpec(reference_cell(rng_mode="counter"), 0, 5)
        stream = ShardSpec(reference_cell(rng_mode="stream"), 0, 5)
        assert counter.content_hash() == stream.content_hash()

    def test_rejects_unknown_rng_mode(self):
        with pytest.raises(ValueError, match="rng_mode"):
            fleet_cell(rng_mode="quantum")

    def test_fleet_hash_depends_on_total_trials(self):
        """Fleet grouping (and so every seed path) depends on (trials,
        graphs) — different totals must not share cache entries."""
        small = ShardSpec(fleet_cell(trials=32), 0, 16)
        large = ShardSpec(fleet_cell(trials=64), 0, 16)
        assert small.content_hash() != large.content_hash()

    def test_rejects_bad_windows(self):
        cell = fleet_cell(trials=10)
        for lo, hi in ((-1, 5), (5, 5), (6, 4), (0, 11)):
            with pytest.raises(ValueError, match="shard window"):
                ShardSpec(cell, lo, hi)


class TestSweepSpec:
    def test_shards_partition_each_cell(self):
        spec = SweepSpec((fleet_cell(trials=70), reference_cell(trials=10)), 32)
        shards = spec.shards()
        windows = [(s.lo, s.hi) for s in shards if s.cell.engine == "fleet"]
        assert windows == [(0, 32), (32, 64), (64, 70)]
        windows = [(s.lo, s.hi) for s in shards if s.cell.engine == "reference"]
        assert windows == [(0, 10)]

    def test_rejects_empty_and_bad_width(self):
        with pytest.raises(ValueError, match="at least one cell"):
            SweepSpec(())
        with pytest.raises(ValueError, match="shard_trials"):
            SweepSpec((fleet_cell(),), shard_trials=0)

    def test_round_trips_through_dict(self):
        spec = SweepSpec((fleet_cell(), reference_cell()), shard_trials=8)
        assert SweepSpec.from_dict(spec.to_dict()) == spec


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
