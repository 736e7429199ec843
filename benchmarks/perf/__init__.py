"""Seeded micro-kernels that ``benchmarks/e2e/kernels.py`` times (see suite.py)."""
