"""The host stamp recorded next to every benchmark number."""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

__all__ = ["host_metadata"]


def host_metadata() -> Dict[str, Any]:
    """The execution host, as recorded next to every benchmark number.

    Timings are meaningless across interpreters or machines, so the
    ``BENCH_*.json`` documents, perfbench results and the perf gate's
    result carry this dict.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
