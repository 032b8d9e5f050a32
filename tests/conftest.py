try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible and quick: the same examples on every run, no timing
    # limit, and no example database carried from one run to the next
    settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=15, database=None)
    settings.load_profile("tier1")
