"""Run ``repro serve`` with the benchmark's timing shims installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    STEPBENCH_TRACE_DIR=DIR python3 stepbench/launcher.py serve --dataset yelp ...

The arguments are those of ``python -m repro``.  Cluster workers are
spawn-started, and a spawned child re-runs this file as ``__mp_main__``
before it unpickles its target, so the same shims cover the worker side.
Every process dumps its spans to ``DIR/spans-<pid>.json`` when it exits.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import shims  # noqa: E402

if __name__ == "__mp_main__":
    shims.install_for_process()

if __name__ == "__main__":
    shims.install_for_process()
    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
