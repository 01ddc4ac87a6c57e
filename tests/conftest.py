"""Shared test settings."""

from hypothesis import settings

# Property tests are part of the deterministic gate: the same examples on
# every run, and no per-example deadline on a loaded box.
settings.register_profile("fqangle", derandomize=True, deadline=None)
settings.load_profile("fqangle")
