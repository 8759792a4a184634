"""``repro serve`` with the per-layer tracer installed (traced run).

Usage::

    python perfbench/serve_child.py TRACE_OUT.json [serve arguments...]

Installs :mod:`tracer` after the program is imported, runs the CLI's
``serve`` command until SIGTERM drains it, then writes the process's
trace and cache-counter deltas to ``TRACE_OUT.json``.  The untraced
run starts ``python -m repro.cli serve`` directly instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import cli  # noqa: E402
import repro.service  # noqa: E402,F401  (load every module to patch)

import tracer  # noqa: E402


def main(argv: list) -> int:
    out, serve_args = argv[0], argv[1:]
    bindings = tracer.install()
    before = tracer.cache_counts()
    code = cli.main(["serve", *serve_args])
    trace = tracer.TRACER.dump()
    trace["caches"] = tracer.count_delta(tracer.cache_counts(), before)
    trace["bindings"] = bindings
    tracer.write_json(out, trace)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
