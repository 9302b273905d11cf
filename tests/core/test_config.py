"""Validation and ablation helpers of AddsConfig."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import AddsConfig, delta_controller, mtb
from repro.errors import SolverError


class TestDefaults:
    def test_paper_defaults(self):
        cfg = AddsConfig()
        assert cfg.n_buckets == 32  # §5.4
        assert cfg.dynamic_delta is True
        assert delta_controller.CLIP_FRACTION == 0.65  # §5.5's empirical bound
        assert mtb.TERMINATION_SWEEPS == 2  # §5.4

    def test_frozen(self):
        with pytest.raises(Exception):
            AddsConfig().n_buckets = 5

    def test_replace(self):
        cfg = AddsConfig().replace(n_buckets=8)
        assert cfg.n_buckets == 8
        assert AddsConfig().n_buckets == 32

    def test_fixed_constants_are_not_fields(self):
        # a field exists only if code outside tests/ sets it; values no
        # caller varies live as module constants where they are read, and
        # the starting Δ is the solver's delta= option
        names = {f.name for f in dataclasses.fields(AddsConfig)}
        fixed = {
            "util_low", "util_high", "settle_switches", "ewma_alpha",
            "delta_growth", "mtb_idle_cycles", "delta_constant",
            "clip_fraction", "settle_passes", "warmup_passes",
            "termination_sweeps", "delta_floor", "initial_delta",
        }
        assert not names & fixed
        assert len(names) == 11


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_buckets": 1},
            {"segment_size": 0},
            {"slots_per_block": 16, "segment_size": 32},
            {"slots_per_block": 100, "segment_size": 32},
            {"pool_blocks": 8},
            {"max_chunk": 0},
            {"min_active_buckets": 0},
            {"min_active_buckets": 5, "max_active_buckets": 3},
            {"max_active_buckets": 64},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(SolverError):
            AddsConfig(**kw)


class TestAblations:
    def test_static_delta_ablation(self):
        cfg = AddsConfig().static_delta_ablation()
        assert cfg.dynamic_delta is False
        assert cfg.n_buckets == 32
        # §5.5's fine-grained mechanism is part of the dynamic scheme:
        # the ablation pins the assignment window to the head bucket
        assert cfg.min_active_buckets == cfg.max_active_buckets == 1

    def test_two_buckets_ablation(self):
        cfg = AddsConfig().two_buckets_ablation()
        assert cfg.dynamic_delta is False
        assert cfg.n_buckets == 2
        assert cfg.max_active_buckets == 1

    def test_ablations_do_not_mutate_base(self):
        base = AddsConfig()
        base.two_buckets_ablation()
        assert base.n_buckets == 32
