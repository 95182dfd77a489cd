"""Hypothesis profiles: ``ci`` replays the same examples on every run and
prints the blob that reproduces a failure; local runs keep the default.
Select it with ``pytest --hypothesis-profile=ci``."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
