"""``capture_profile``: run a callable under ``cProfile``.

The CLI's ``repro run --profile PATH`` and before/after profiles during
performance work go through it.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from typing import Callable, Union


def capture_profile(
    fn: Callable[[], object],
    sort: str = "tottime",
    limit: int = 30,
    dump_to: Union[str, os.PathLike, None] = None,
) -> tuple[object, str]:
    """Run ``fn`` under ``cProfile`` and return its result plus a report.

    The standard harness for before/after engine profiles: hot-path
    optimization work captures one profile per candidate change and diffs
    the reports (see docs/ARCHITECTURE.md's performance section and
    ``benchmarks/bench_engine_hotpath.py``).

    Args:
        fn: Zero-argument callable to profile (e.g. a closed-over
            ``spec.run()`` call).
        sort: ``pstats`` sort key (``"tottime"``, ``"cumulative"``, ...).
        limit: Number of rows to include in the report.
        dump_to: Optional path; when given, the raw ``pstats`` data is
            also written there (loadable with ``pstats.Stats(path)`` or
            snakeviz-style viewers).  The CLI's ``--profile PATH`` flag
            lands here.

    Returns:
        ``(result, report)`` — whatever ``fn`` returned, and the formatted
        profile table as a string.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    if dump_to is not None:
        profiler.dump_stats(os.fspath(dump_to))
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(limit)
    return result, buffer.getvalue()
