"""Test configuration: property tests draw the same examples on every run.

The hypothesis profile derandomizes example generation and keeps no
example database, so a run neither depends on nor writes `.hypothesis/`.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
