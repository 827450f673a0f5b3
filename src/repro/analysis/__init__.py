"""Experiment drivers and table rendering (the bench layer's engine)."""

from typing import Any, Callable

from repro._lazy import lazy_exports
from repro.analysis.figures import ascii_plot, sparkline
from repro.analysis.sweep import cross_product, sweep
from repro.analysis.tables import render_kv, render_table
from repro.analysis.verification import verify_reproduction

#: Loaded on first use: the drivers import numpy (``cohort``) and every
#: system family in the catalogue (``experiments``, ``shard_driver``,
#: ``censorship``), and ``runner`` brings the process pool.  Rendering a
#: table or a figure needs none of them.  A lazy name must differ from
#: its submodule's name: importing ``repro.analysis.sweep`` binds the
#: module over the package attribute, so ``sweep`` stays eager.
_LAZY = {
    "run_censorship_sweep": "repro.analysis.censorship",
    "run_churn_availability": "repro.analysis.cohort",
    "run_feasibility_cohort": "repro.analysis.cohort",
    "run_federation_availability_cohort": "repro.analysis.cohort",
    "run_quality_vs_quantity_cohort": "repro.analysis.cohort",
    "run_social_tradeoff_cohort": "repro.analysis.cohort",
    "naming_attack_curve": "repro.analysis.experiments",
    "run_federation_availability": "repro.analysis.experiments",
    "run_feasibility": "repro.analysis.experiments",
    "run_name_theft": "repro.analysis.experiments",
    "run_naming_comparison": "repro.analysis.experiments",
    "run_partial_federation_sweep": "repro.analysis.experiments",
    "run_proof_economics": "repro.analysis.experiments",
    "run_quality_vs_quantity": "repro.analysis.experiments",
    "run_social_tradeoff": "repro.analysis.experiments",
    "run_swarm_availability": "repro.analysis.experiments",
    "run_federation_availability_shard": "repro.analysis.shard_driver",
    "run_registration_shard_smoke": "repro.analysis.shard_driver",
    "run_shard_chaos": "repro.analysis.shard_driver",
    "run_social_tradeoff_shard": "repro.analysis.shard_driver",
    "RunnerStats": "repro.analysis.runner",
    "SweepCache": "repro.analysis.runner",
    "SweepRunner": "repro.analysis.runner",
    "canonical_config_hash": "repro.analysis.runner",
    "derive_task_seed": "repro.analysis.runner",
}
__getattr__: Callable[[str], Any] = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "run_feasibility",
    "run_federation_availability",
    "run_partial_federation_sweep",
    "run_social_tradeoff",
    "run_naming_comparison",
    "naming_attack_curve",
    "run_name_theft",
    "run_proof_economics",
    "run_swarm_availability",
    "run_quality_vs_quantity",
    "sweep",
    "cross_product",
    "SweepRunner",
    "SweepCache",
    "RunnerStats",
    "canonical_config_hash",
    "derive_task_seed",
    "render_table",
    "render_kv",
    "sparkline",
    "ascii_plot",
    "verify_reproduction",
    "run_churn_availability",
    "run_federation_availability_cohort",
    "run_social_tradeoff_cohort",
    "run_quality_vs_quantity_cohort",
    "run_feasibility_cohort",
    "run_federation_availability_shard",
    "run_social_tradeoff_shard",
    "run_registration_shard_smoke",
    "run_shard_chaos",
    "run_censorship_sweep",
]
