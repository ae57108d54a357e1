"""The sequence-database benchmark: see ``run.py``."""
