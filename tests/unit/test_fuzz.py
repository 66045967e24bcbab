"""Fuzz generator and shrinker units (no simulations)."""

import pytest

from repro.experiments.spec import ScenarioSpec, spec_from_mapping, spec_to_mapping
from repro.fuzz import (
    DEFAULT_PROFILE,
    SMOKE_PROFILE,
    generate_spec,
    parse_seed_range,
    shrink_spec,
)


class TestGenerator:
    def test_same_seed_same_spec(self):
        for seed in range(20):
            assert generate_spec(seed, DEFAULT_PROFILE) == generate_spec(
                seed, DEFAULT_PROFILE
            )

    def test_different_seeds_differ(self):
        specs = {repr(generate_spec(seed, DEFAULT_PROFILE)) for seed in range(20)}
        assert len(specs) > 15  # near-certain uniqueness

    def test_profiles_are_independent_dimensions(self):
        assert generate_spec(3, DEFAULT_PROFILE) != generate_spec(3, SMOKE_PROFILE)

    def test_specs_are_valid_and_within_profile_bounds(self):
        for seed in range(40):
            spec = generate_spec(seed, SMOKE_PROFILE)
            if spec.script:
                assert spec.script == "appendix_c"
                assert spec.resolved_f() >= 2
                continue
            assert spec.n in SMOKE_PROFILE.n_choices
            assert spec.protocol in SMOKE_PROFILE.protocols
            assert spec.duration <= SMOKE_PROFILE.max_duration
            assert spec.faults.total() <= spec.n
            # The checkpoint axis may add at most one snapshot-lag
            # window (explicit groups isolating the last replica) on
            # top of the profile's sampled split partitions.
            lag_windows = [
                window for window in spec.partitions if window.groups
            ]
            assert len(lag_windows) <= (1 if spec.checkpoint_interval else 0)
            assert (
                len(spec.partitions) - len(lag_windows)
                <= SMOKE_PROFILE.max_partitions
            )
            assert spec.seeds == (seed,)

    def test_schedule_space_is_exercised(self):
        specs = [generate_spec(seed, DEFAULT_PROFILE) for seed in range(120)]
        assert any(spec.script for spec in specs)
        assert any(spec.naive_accounting for spec in specs)
        assert any(spec.partitions for spec in specs)
        assert any(spec.gst > 0 for spec in specs)
        assert any(spec.faults.crash for spec in specs)
        assert any(spec.faults.marker_lie for spec in specs)
        assert any(
            spec.faults.byzantine_total() == spec.resolved_f() + 1
            for spec in specs
            if not spec.script
        ), "the t = f + 1 regime (Definition 1's boundary) must be sampled"

    def test_generated_specs_round_trip_through_json(self):
        for seed in range(25):
            spec = generate_spec(seed, DEFAULT_PROFILE)
            mapping = spec_to_mapping(spec)
            assert spec_from_mapping(mapping) == spec


class TestSeedRange:
    def test_colon_range(self):
        assert parse_seed_range("0:4") == (0, 1, 2, 3)

    def test_single_seed(self):
        assert parse_seed_range("9") == (9,)

    def test_comma_list(self):
        assert parse_seed_range("1,5,9") == (1, 5, 9)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty seed range"):
            parse_seed_range("5:5")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_range("a:b")


class TestShrinker:
    """Shrinking against synthetic predicates — no simulation runs."""

    def _bloated_spec(self):
        return spec_from_mapping(
            {
                "name": "bloated",
                "n": 13,
                "duration": 12.0,
                "gst": 1.0,
                "pre_gst_delay": 0.2,
                "jitter": 0.004,
                "faults": {"silent": 1, "crash": 2, "lazy": 1},
                "partitions": [
                    {"start": 1.0, "end": 3.0},
                    {"start": 5.0, "end": 6.0},
                ],
            }
        )

    def test_shrinks_to_the_triggering_fault(self):
        def fails(spec, seed=None):
            return spec.faults.silent >= 1

        result = shrink_spec(self._bloated_spec(), fails=fails)
        spec = result.spec
        assert result.shrunk
        assert spec.faults.silent == 1
        assert spec.faults.crash == 0
        assert spec.faults.lazy == 0
        assert spec.partitions == ()
        assert spec.gst == 0.0
        assert spec.jitter == 0.0
        assert spec.n == 4

    def test_shrink_keeps_schedule_pieces_the_failure_needs(self):
        def fails(spec, seed=None):
            return len(spec.partitions) >= 1 and spec.faults.crash >= 1

        result = shrink_spec(self._bloated_spec(), fails=fails)
        assert len(result.spec.partitions) == 1
        assert result.spec.faults.crash == 1
        assert result.spec.faults.silent == 0

    def test_non_failing_spec_rejected(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_spec(self._bloated_spec(), fails=lambda spec, seed=None: False)

    def test_shrink_is_deterministic(self):
        def fails(spec, seed=None):
            return spec.faults.crash >= 1

        first = shrink_spec(self._bloated_spec(), fails=fails)
        second = shrink_spec(self._bloated_spec(), fails=fails)
        assert first.spec == second.spec
        assert first.attempts == second.attempts


class TestScenarioSpecFuzzFields:
    def test_naive_accounting_reaches_replica_config(self):
        spec = ScenarioSpec(name="x", n=4, naive_accounting=True)
        assert spec.replica_config(0).naive_accounting is True

    def test_scripted_spec_does_not_build_clusters(self):
        spec = ScenarioSpec(name="x", script="appendix_c", n=7)
        with pytest.raises(ValueError, match="scripted"):
            spec.build()

    def test_unknown_script_rejected(self):
        with pytest.raises(ValueError, match="unknown script"):
            ScenarioSpec(name="x", script="appendix_z")

    def test_appendix_c_needs_f_at_least_two(self):
        with pytest.raises(ValueError, match="f >= 2"):
            ScenarioSpec(name="x", script="appendix_c", n=4)
