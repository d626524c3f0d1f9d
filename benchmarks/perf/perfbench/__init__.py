"""The repo's perf benchmark (see ``benchmarks/perf/README.md``).

Everything here measures ``src/repro`` from outside: it calls, times and
— in the traced pass only — wraps the layers' public functions.  Nothing
under ``src/`` knows this package exists.
"""
