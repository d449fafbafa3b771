import os
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The default's examples without the shrink phase: a failing property test
# reports the counterexample it drew, unshrunk, in seconds rather than
# minutes.  Q2REP_HYPOTHESIS_PROFILE=no-shrink selects it for runs that are
# expected to fail, such as checks against a mutated copy.
settings.register_profile(
    "no-shrink",
    parent=settings.get_profile("default"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile(os.environ.get("Q2REP_HYPOTHESIS_PROFILE", "default"))


def seeded_rng() -> random.Random:
    """RNG for randomized-parameter sweeps; Q2REP_SEED overrides the default."""
    return random.Random(int(os.environ.get("Q2REP_SEED", "20250809")))


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 9)
    return Fraction(num, den)


@pytest.fixture
def rng() -> random.Random:
    return seeded_rng()
