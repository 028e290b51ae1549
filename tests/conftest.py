import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# hypothesis imports this (and through it libcst) the first time a test fails;
# libcst's import warns, which filterwarnings = error would turn into a pytest
# INTERNALERROR that ends the session. Import it once here, that warning muted.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from nashadmm import AdmmConfig, default_wanet_instance, run

WANET_SEED = 7


@pytest.fixture(scope="session")
def wanet_default():
    """The seeded congestion instance most tests share."""
    return default_wanet_instance(WANET_SEED)


@pytest.fixture(scope="session")
def wanet_run(wanet_default):
    """One converged solver run on the default instance, reused read-only."""
    game, graph = wanet_default
    # tighter than the defaults so the recorded tail is fully settled
    cfg = AdmmConfig(c=1.0, beta=1.0, max_iter=5000, record_every=1,
                     tol_consensus=1e-9, tol_residual=1e-7)
    result = run(game, graph, cfg)
    assert result.reason == "converged"
    return result, cfg
