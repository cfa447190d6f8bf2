"""Hypothesis caches the constants it reads from the source under its home
directory, by default ``.hypothesis/`` in the working directory, even with no
example database.  Keep that directory inside pytest's own cache instead."""


def pytest_configure(config):
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
