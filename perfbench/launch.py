"""Run ``repro`` with the tracing shims installed.

``python3 perfbench/launch.py <repro arguments>`` behaves like
``python3 -m repro <repro arguments>`` — it calls the same
``repro.cli.main`` — but first wraps the layer entry points
(:mod:`shims`) and, at exit, writes the recorded spans into the directory
named by ``PERFBENCH_SPANS``.  Forked check workers inherit the wrappers
but leave through ``os._exit``, so only this process writes spans.
"""

import atexit
import os
import sys

import shims

if __name__ == "__main__":
    shims.install()
    atexit.register(shims.dump, os.environ["PERFBENCH_SPANS"])
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
