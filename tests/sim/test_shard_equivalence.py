"""Shard-engine vs single-process equivalence, property-based.

Unlike the cohort contract (``docs/SCALING.md`` track (a)), the shard
engine is not a statistical approximation: its determinism contract
says the *same* per-node streams drive the same draws regardless of
which shard owns a node, so for any shard count ``K`` every workload
aggregate must equal the unsharded reference — integer counters
exactly, latency percentiles to float round-off.  ``K == 1`` is held
to full identity (including the flow snapshot) for every driver
workload, and a fixed ``(seed, K)`` run twice must be byte-identical.

Workloads come from :mod:`repro.analysis.shard_driver`: the E5
ping-mesh (placed PlanetLatency, optional churn — the richest
randomness surface), the E4 federation models (failures plus fan-out
traffic), and the E6-class registration smoke (retry schedules).
"""

import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.shard_driver import (
    _federation_shard_point,
    _ping_mesh_point,
    federation_workload,
    ping_mesh_workload,
    registration_workload,
)
from repro.sim.shard import ShardedSimulator, run_single_process

SETTINGS = settings(
    max_examples=10 if os.environ.get("CI") else 25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

mesh_configs = st.fixed_dictionaries({
    "n_nodes": st.integers(min_value=4, max_value=14),
    "degree": st.integers(min_value=1, max_value=4),
    "n_rounds": st.integers(min_value=1, max_value=3),
    "churn": st.booleans(),
})

seeds = st.integers(min_value=0, max_value=2**31 - 1)

EXACT_KEYS = ("pings_sent", "pongs_received")
FLOAT_KEYS = ("rtt_p50_ms", "rtt_p95_ms")


def mesh_point(config, seed, shards, engine="shard"):
    return _ping_mesh_point(
        seed=seed, shards=shards, engine=engine, **config
    )


class TestMeshEquivalence:
    @SETTINGS
    @given(config=mesh_configs, seed=seeds,
           shards=st.sampled_from((1, 2, 4)))
    def test_sharded_aggregates_equal_single_process(
        self, config, seed, shards
    ):
        reference = mesh_point(config, seed, shards=1, engine="single")
        sharded = mesh_point(config, seed, shards=shards)
        for key in EXACT_KEYS:
            assert sharded[key] == reference[key], (key, config, seed)
        for key in FLOAT_KEYS:
            assert sharded[key] == pytest.approx(
                reference[key], rel=1e-9, abs=1e-9
            ), (key, config, seed)

    @SETTINGS
    @given(config=mesh_configs, seed=seeds)
    def test_double_run_is_byte_identical(self, config, seed):
        first = json.dumps(mesh_point(config, seed, 2), sort_keys=True)
        second = json.dumps(mesh_point(config, seed, 2), sort_keys=True)
        assert first == second

    def test_distinct_seeds_give_distinct_meshes(self):
        config = {"n_nodes": 10, "degree": 3, "n_rounds": 2, "churn": True}
        assert mesh_point(config, 1, 2) != mesh_point(config, 2, 2)


federation_configs = st.fixed_dictionaries({
    "model_name": st.sampled_from(
        ("single_home", "replicated", "replicated_failover")
    ),
    "n_servers": st.integers(min_value=2, max_value=6),
    "n_users": st.integers(min_value=2, max_value=10),
    "n_messages": st.integers(min_value=1, max_value=6),
    "failed_servers": st.integers(min_value=0, max_value=2),
})

FEDERATION_KEYS = ("users_complete", "messages_read", "posts_stored")


def clamp_failures(config):
    """At least one federation server stays up."""
    config = dict(config)
    config["failed_servers"] = min(
        config["failed_servers"], config["n_servers"] - 1
    )
    return config


class TestFederationEquivalence:
    @SETTINGS
    @given(config=federation_configs, seed=seeds,
           shards=st.sampled_from((1, 2, 4)))
    def test_sharded_aggregates_equal_single_process(
        self, config, seed, shards
    ):
        config = clamp_failures(config)
        reference = run_single_process(federation_workload(**config), seed)
        sharded = _federation_shard_point(
            seed=seed, shards=shards, **config
        )
        merged = {
            "users_complete": sharded["users_complete"],
            "messages_read": sharded["messages_read"],
            "posts_stored": sharded["posts_stored"],
        }
        expected = {key: reference[key] for key in FEDERATION_KEYS}
        assert merged == expected, (config, seed, shards)


registration_configs = st.fixed_dictionaries({
    "n_clients": st.integers(min_value=1, max_value=8),
    "retry_every": st.sampled_from((5.0, 10.0, 25.0)),
})

WORKLOADS = {
    "ping_mesh": ping_mesh_workload,
    "federation": federation_workload,
    "registration": registration_workload,
}

workload_cases = st.one_of(
    st.tuples(st.just("ping_mesh"), mesh_configs),
    st.tuples(st.just("federation"), federation_configs.map(clamp_failures)),
    st.tuples(st.just("registration"), registration_configs),
)


class TestK1Identity:
    @SETTINGS
    @given(case=workload_cases, seed=seeds)
    @example(case=("ping_mesh", {}), seed=7)
    @example(case=("federation", {"model_name": "single_home"}), seed=7)
    @example(case=("federation", {"model_name": "replicated"}), seed=7)
    @example(
        case=("federation", {"model_name": "replicated_failover"}), seed=7
    )
    @example(case=("registration", {}), seed=7)
    def test_k1_run_is_fully_identical_to_single_process(self, case, seed):
        name, config = case
        workload = WORKLOADS[name](**config)
        reference = run_single_process(workload, seed)
        coordinator = ShardedSimulator(workload, shards=1, seed=seed)
        results = coordinator.run()
        assert len(results) == 1
        merged = dict(results[0])
        merged["flow"] = coordinator.flow
        # Full structural identity, not just aggregate equality: the
        # same collect() dict and the same flow snapshot.
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        assert coordinator.router.messages_crossed == 0
