"""End-to-end benchmark of the generated SPMD programs (see run.py)."""
