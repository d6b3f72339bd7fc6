from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dcakit import PredictionSet

# CI selects this profile (--hypothesis-profile=ci). Examples derive from
# each test's name rather than a random seed, so a counterexample CI finds
# on any numpy comes back with the same command locally; the converter
# properties in test_decimals.py also draw more examples under it.
settings.register_profile("ci", derandomize=True)

D0_RISKS = [0.9, 0.8, 0.7, 0.6, 0.55, 0.4, 0.3, 0.2, 0.1, 0.05]
D0_OUTCOMES = [1, 1, 0, 1, 0, 1, 0, 0, 0, 0]

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def d0() -> PredictionSet:
    return PredictionSet(
        risks=np.array(D0_RISKS), outcomes=np.array(D0_OUTCOMES), name="d0"
    )


@pytest.fixture
def d0_degraded() -> PredictionSet:
    # Swap the risks of the event scored 0.6 and the non-event scored 0.3,
    # dropping (tp, fp) at t=0.5 from (3, 2) to (2, 3).
    risks = list(D0_RISKS)
    risks[3], risks[6] = risks[6], risks[3]
    return PredictionSet(
        risks=np.array(risks), outcomes=np.array(D0_OUTCOMES), name="d0-degraded"
    )


@pytest.fixture
def d0_csv_path() -> Path:
    return DATA_DIR / "d0.csv"
