"""Tests for :mod:`repro.spec` -- the unified evaluation parameter surface.

The load-bearing property is cache-key stability: for non-adaptive specs
the canonical cache identity must be byte-for-byte the dict the service
hashed before ``EvaluationSpec`` existed, so verdict caches populated by
earlier versions keep answering.  The golden digests below were computed
against that earlier implementation and must never change.
"""

import argparse

import pytest

from repro.errors import ServiceError, SpecError
from repro.spec import (
    API_VERSION,
    DEFAULT_CHUNK_SIZE,
    EvaluationSpec,
    canonical_key,
)

#: Golden cache keys computed by the pre-EvaluationSpec service code
#: (netlist hash "deadbeef").  A change here silently invalidates every
#: existing verdict cache -- treat any mismatch as a regression.
GOLDEN_KEYS = {
    "e4": (
        {"design": "kronecker", "scheme": "eq6",
         "n_simulations": 20_000, "seed": 7},
        "39a5a53fd7101ed88bebd172bc7593145ea8ceea2ab7531126938d3812d7cf43",
    ),
    "default": (
        {},
        "c72318605e8d760270e7e9fe3aea2fe168ad381233e0aa5a47740af2c625ed86",
    ),
    "pairs": (
        {"design": "sbox", "scheme": "eq9", "mode": "both",
         "max_pairs": 100, "pair_offsets": [0, 1], "n_windows": 2,
         "threshold": 7.5, "fixed_secret": 3},
        "25c6e1980dd919b440e8d54c13ccc8a71b8808bb5824b365a98a06ce44ec3a06",
    ),
}


class TestRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        spec = EvaluationSpec.from_dict(
            {"design": "sbox", "scheme": "eq6", "mode": "both",
             "pair_offsets": [0, 1], "adaptive": True,
             "decide_threshold": 6.0, "max_budget_factor": 2.0}
        )
        again = EvaluationSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_to_dict_is_json_safe(self):
        import json

        spec = EvaluationSpec(pair_offsets=(0, 1))
        parsed = json.loads(json.dumps(spec.to_dict()))
        assert EvaluationSpec.from_dict(parsed) == spec

    def test_pair_offsets_coerced_to_tuple(self):
        spec = EvaluationSpec.from_dict({"pair_offsets": [0, 2]})
        assert spec.pair_offsets == (0, 2)


class TestGoldenCacheKeys:
    @pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
    def test_non_adaptive_keys_match_pre_spec_service(self, name):
        payload, digest = GOLDEN_KEYS[name]
        spec = EvaluationSpec.from_dict(dict(payload))
        assert spec.cache_key("deadbeef") == digest

    def test_execution_fields_do_not_fragment(self):
        base = EvaluationSpec()
        for variant in (
            EvaluationSpec(engine="bitsliced"),
            EvaluationSpec(workers=16),
            EvaluationSpec(chunk_size=4_096),
        ):
            assert variant.cache_key("x") == base.cache_key("x")

    def test_adaptive_defaults_do_not_fragment_when_off(self):
        # An adaptive=False spec hashes identically no matter what the
        # (inert) scheduler knobs say.
        base = EvaluationSpec()
        tweaked = EvaluationSpec(decide_threshold=9.0, decide_chunks=5)
        assert tweaked.cache_key("x") == base.cache_key("x")
        assert "adaptive" not in base.cache_params("x")

    def test_adaptive_on_changes_the_key(self):
        base = EvaluationSpec()
        on = EvaluationSpec(adaptive=True)
        assert on.cache_key("x") != base.cache_key("x")
        assert on.cache_params("x")["adaptive"]["decide_threshold"] == 5.0
        # ... and each scheduler knob is semantic once adaptive is on.
        assert (
            EvaluationSpec(adaptive=True, decide_chunks=3).cache_key("x")
            != on.cache_key("x")
        )

    def test_canonical_key_order_invariant(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key(
            {"b": 2, "a": 1}
        )


class TestValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            {"bogus": 1},
            {"n_simulations": 0},
            {"mode": "third"},
            {"engine": "quantum"},
            {"model": "power"},
            {"adaptive": "yes"},
            {"decide_threshold": 0.0},
            {"null_threshold": 9.0},  # exceeds decide_threshold default
            {"decide_chunks": 0},
            {"min_null_samples": 0},
            {"max_budget_factor": 0.5},
            {"pair_offsets": "zero"},
        ],
    )
    def test_rejects_bad_specs(self, payload):
        with pytest.raises(SpecError):
            EvaluationSpec.from_dict(payload)

    def test_spec_error_is_a_service_error(self):
        # HTTP 400 mapping and CLI error handling catch ServiceError.
        with pytest.raises(ServiceError):
            EvaluationSpec.from_dict({"mode": "third"})

    def test_not_a_dict(self):
        with pytest.raises(SpecError):
            EvaluationSpec.from_dict("not a dict")


#: Every integer or number field; ``True == 1`` must not pass for one.
NUMERIC_FIELDS = (
    "n_simulations", "n_windows", "fixed_secret", "threshold", "max_pairs",
    "pair_seed", "seed", "workers", "chunk_size", "decide_threshold",
    "null_threshold", "decide_chunks", "min_null_samples",
    "max_budget_factor", "max_enum_bits", "shard_lane_bits",
)


class TestBooleansAreNotNumbers:
    """A JSON ``true`` in a numeric field is a bad spec (HTTP 400), not a
    1: accepted, it ran seed 1 under a second cache key."""

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_from_dict_rejects(self, name, value):
        with pytest.raises(SpecError, match=name):
            EvaluationSpec.from_dict({name: value})

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_validate_rejects(self, name, value):
        with pytest.raises(SpecError, match=name):
            EvaluationSpec(**{name: value}).validate()

    @pytest.mark.parametrize("value", [True, False])
    def test_pair_offset_entries_rejected(self, value):
        with pytest.raises(SpecError, match="pair_offsets"):
            EvaluationSpec.from_dict({"pair_offsets": [0, value]})
        with pytest.raises(SpecError, match="pair_offsets"):
            EvaluationSpec(pair_offsets=(0, value)).validate()

    def test_run_spec_validates_first(self):
        from repro.service.runner import run_spec

        with pytest.raises(SpecError, match="seed"):
            run_spec(EvaluationSpec(seed=True))

    def test_integers_still_accepted(self):
        spec = EvaluationSpec.from_dict(
            {name: 2 for name in NUMERIC_FIELDS}
            | {"pair_offsets": [0, 2], "null_threshold": 1.5}
        )
        assert spec.seed == 2 and spec.pair_offsets == (0, 2)


class TestFromArgs:
    def _namespace(self, **overrides):
        ns = argparse.Namespace(
            design="kronecker", scheme="eq6", transitions=False,
            simulations=10_000, windows=1, fixed=0, pairs=False,
            batch_probes=False, max_pairs=500, pair_seed=None, seed=3,
            engine="compiled", workers=1, chunk_size=None, adaptive=False,
            decide_threshold=5.0, null_threshold=4.0, decide_chunks=2,
            min_null_samples=8_192, adaptive_cap=1.0,
        )
        for key, value in overrides.items():
            setattr(ns, key, value)
        return ns

    def test_basic_mapping(self):
        spec = EvaluationSpec.from_args(self._namespace())
        assert spec.design == "kronecker"
        assert spec.scheme == "eq6"
        assert spec.n_simulations == 10_000
        assert spec.model == "glitch"
        assert spec.mode == "first"
        assert not spec.adaptive

    def test_mode_and_model_flags(self):
        spec = EvaluationSpec.from_args(
            self._namespace(batch_probes=True, transitions=True)
        )
        assert spec.mode == "both"
        assert spec.model == "glitch-transition"
        spec = EvaluationSpec.from_args(self._namespace(pairs=True))
        assert spec.mode == "pairs"

    def test_adaptive_flags(self):
        spec = EvaluationSpec.from_args(
            self._namespace(adaptive=True, adaptive_cap=2.0,
                            decide_threshold=6.5)
        )
        assert spec.adaptive
        assert spec.max_budget_factor == 2.0
        assert spec.decide_threshold == 6.5

    def test_missing_attributes_use_defaults(self):
        # Sub-commands that do not define a flag still parse.
        spec = EvaluationSpec.from_args(argparse.Namespace())
        assert spec == EvaluationSpec()


class TestCampaignConfig:
    def test_plain_spec_one_chunk(self):
        config = EvaluationSpec(n_simulations=50_000).campaign_config()
        assert config.chunk_size is None
        assert config.adaptive is None

    def test_default_chunking_applies_server_chunk(self):
        config = EvaluationSpec(n_simulations=50_000).campaign_config(
            default_chunking=True
        )
        assert config.chunk_size == DEFAULT_CHUNK_SIZE
        config = EvaluationSpec(n_simulations=100).campaign_config(
            default_chunking=True
        )
        assert config.chunk_size == 100

    def test_adaptive_spec_always_chunks(self):
        spec = EvaluationSpec(n_simulations=50_000, adaptive=True)
        config = spec.campaign_config()
        assert config.chunk_size == DEFAULT_CHUNK_SIZE
        assert config.adaptive is not None
        assert config.adaptive.decide_threshold == spec.decide_threshold
        assert config.adaptive.max_budget_factor == spec.max_budget_factor

    def test_execution_extras_ride_along(self):
        config = EvaluationSpec().campaign_config(
            checkpoint="/tmp/x.npz", time_budget=5.0, early_stop=30.0
        )
        assert config.checkpoint == "/tmp/x.npz"
        assert config.time_budget == 5.0
        assert config.early_stop == 30.0


class TestApiVersionConstant:
    def test_v1(self):
        assert API_VERSION == "v1"
