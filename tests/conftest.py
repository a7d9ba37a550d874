"""Set-up shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching to print an explicit-example patch; that module
# imports libcst, whose import of mypy_extensions.TypedDict raises a
# DeprecationWarning.  Under -W error::DeprecationWarning the warning turned
# the failure into an INTERNALERROR that stopped the whole run.  Importing the
# module here, with only DeprecationWarning ignored and only for this import,
# lets a failing test be reported as a failure; every other warning keeps the
# filters the run was started with.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin prints no patch
        pass
