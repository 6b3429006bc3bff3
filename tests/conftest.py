from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
