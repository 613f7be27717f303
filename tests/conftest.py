"""Hypothesis profiles. ``ci`` runs each property test on 1,000 examples
with no deadline; it is loaded only by name
(``pytest --hypothesis-profile=ci``), so a plain run keeps the default
profile."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
