"""Benchmark of the symhess J-Hessenberg reduction; entry point ``run.py``."""
