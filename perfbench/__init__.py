"""The repository's benchmark: end-to-end and per-layer metrics (see run.py)."""
