"""Property test: every spec that validates yields its full row grid."""

import itertools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hnoma import InvalidConfigError
from hnoma.sweep import SweepSpec, run_sweep

from conftest import SEED

CONTENDED_METHODS = ("mc", "exact", "asymptotic")
UNDERPERF_METHODS = ("mc", "numeric-integration")
SCHEMES = ("FSIC", "HSIC-NPA", "HSIC-PA")


@st.composite
def spec_dicts(draw):
    M = draw(st.integers(2, 6))
    m, n = draw(st.lists(st.integers(1, M), min_size=2, max_size=2, unique=True))
    quantity = draw(st.sampled_from(("contended-loss", "underperformance")))
    if quantity == "contended-loss":
        schemes = ["HSIC-PA"]
        methods = draw(st.lists(st.sampled_from(CONTENDED_METHODS),
                                min_size=1, max_size=3, unique=True))
    else:
        schemes = draw(st.lists(st.sampled_from(SCHEMES),
                                min_size=1, max_size=2, unique=True))
        methods = draw(st.lists(st.sampled_from(UNDERPERF_METHODS),
                                min_size=1, max_size=2, unique=True))
    return dict(
        M=M, m=m, n=n,
        R_m=draw(st.floats(0.01, 10.0)),
        beta=draw(st.floats(0.01, 0.499)),
        eta=10.0 ** draw(st.floats(-3.0, 3.0)),
        snr_db=draw(st.lists(st.floats(-10.0, 80.0), min_size=1, max_size=3)),
        schemes=schemes, methods=methods, quantity=quantity,
        trials=draw(st.integers(1, 2_000)), seed=SEED, label="prop")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_dicts())
def test_run_sweep_returns_the_full_grid_in_order(raw):
    try:
        spec = SweepSpec.from_dict(raw)
    except InvalidConfigError:
        assume(False)
    rows = run_sweep([spec])[0]
    grid = list(itertools.product(spec.snr_db, spec.schemes, spec.methods))
    assert [(r["snr_db"], r["scheme"], r["method"]) for r in rows] == grid
