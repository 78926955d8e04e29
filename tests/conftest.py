"""Suite-wide settings: property tests draw the same examples on every run
and have no per-example deadline, so a loaded host cannot fail them."""
try:
    from hypothesis import settings
except ImportError:  # the property tests skip without hypothesis
    pass
else:
    settings.register_profile("lossdepth", derandomize=True, deadline=None, database=None)
    settings.load_profile("lossdepth")
