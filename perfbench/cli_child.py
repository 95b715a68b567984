"""`python -m turanvdc` with the benchmark's tracer installed.

Usage: python3 cli_child.py SPANS_JSON ARG...

Runs the CLI exactly as `python -m turanvdc ARG...` would, with the layer
functions wrapped, and writes the recorded spans and counts to SPANS_JSON
when the interpreter exits.  The exit code is the CLI's own.
"""
import atexit
import runpy
import sys

import turanvdc.cli  # noqa: F401  (loads every module before patching)

from tracer import Tracer

tracer = Tracer()
tracer.install()
atexit.register(tracer.dump, sys.argv[1])
sys.argv = ["turanvdc", *sys.argv[2:]]
runpy.run_module("turanvdc", run_name="__main__", alter_sys=True)
