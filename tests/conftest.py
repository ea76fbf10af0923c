"""Shared test configuration: the hypothesis ``ci`` profile.

When the environment variable ``CI`` is set (GitHub Actions sets it), the
``ci`` profile is loaded.  It makes a failing property test print its
reproduction blob, which replays the failure locally through
``@reproduce_failure``.  It changes no example count and no deadline: the
per-test ``@settings`` stand as written.
"""
import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
