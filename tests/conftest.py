from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 result never depends on an earlier run or on timing
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
