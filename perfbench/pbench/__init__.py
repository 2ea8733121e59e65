"""Library half of the repo benchmark (see ../README.md).

``run.py`` pins the BLAS thread count *before* anything here is imported,
because the workload modules import numpy and ``repro``.
"""
