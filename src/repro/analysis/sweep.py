"""Generic parameter-sweep helpers used by benches and examples.

Both helpers route through :mod:`repro.analysis.runner`: ``sweep``
executes via a :class:`~repro.analysis.runner.SweepRunner` (serial and
uncached by default, parallel/cached when the caller passes one), and
``cross_product`` builds the config grids the runner consumes.  The
runner is imported on first use, so importing the package to render a
table does not load the process pool.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.analysis.runner import SweepRunner

__all__ = ["sweep", "cross_product"]


def sweep(
    run: Callable[..., Any],
    parameter: str,
    values: Iterable[Any],
    *,
    runner: Optional[SweepRunner] = None,
    experiment: Optional[str] = None,
    **fixed: Any,
) -> List[Dict[str, Any]]:
    """Run ``run(**fixed, parameter=value)`` per value.

    Returns rows of ``{parameter: value, "result": result}``, in the
    order of ``values`` regardless of how the runner schedules them.
    Pass ``runner=SweepRunner(workers=N, cache=...)`` to parallelize or
    memoize; the default is the exact serial loop this helper always was.
    """
    from repro.analysis.runner import SweepRunner

    values = list(values)
    runner = runner or SweepRunner()
    name = experiment or getattr(run, "__name__", "sweep")
    configs = [dict(fixed, **{parameter: value}) for value in values]
    results = runner.run(name, run, configs)
    return [
        {parameter: value, "result": result}
        for value, result in zip(values, results)
    ]


def cross_product(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """All combinations of named axes, as kwargs dicts.

    Axes expand in **caller order** (keyword/dict insertion order), so
    sweep rows come out in the order the caller named the axes — the
    last-named axis varies fastest.  Cache identity is unaffected by
    axis order: :func:`repro.analysis.runner.canonical_config_hash`
    serializes configs with sorted keys, so reordering axes reorders
    rows without invalidating any cached result.
    """
    combos: List[Dict[str, Any]] = [{}]
    for name, values in axes.items():
        combos = [
            {**combo, name: value} for combo in combos for value in values
        ]
    return combos
