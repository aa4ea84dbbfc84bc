"""Benchmark harness for equicart; see run.py."""
