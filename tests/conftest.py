from hypothesis import HealthCheck, settings

# Derandomized with no example database: every run draws the same examples.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
settings.load_profile("suite")
