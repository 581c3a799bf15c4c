import math
from dataclasses import fields

import pytest

from hnoma import InvalidConfigError, SystemConfig, db_to_linear


def test_make_and_snr_roundtrip():
    cfg = SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=2.0, snr_db=20.0)
    assert math.isclose(cfg.rho_n, 100.0)
    assert math.isclose(cfg.rho_m, 50.0)
    assert math.isclose(cfg.snr_db, 20.0)
    cfg2 = cfg.with_snr(30.0)
    assert math.isclose(cfg2.rho_n, 1000.0)
    assert math.isclose(cfg2.eta, 2.0)


def test_derived_scalars():
    cfg = SystemConfig.make(M=5, m=1, n=2, R_m=1.0, beta=0.25, eta=1.0, snr_db=10.0)
    assert math.isclose(cfg.eps_m, 1.0)
    assert math.isclose(cfg.alpha_m, 0.1)


def test_eta_consistency_enforced():
    # rho_m is derived from eta and rho_n, so no inconsistent triple exists
    assert [f.name for f in fields(SystemConfig)] == ["M", "m", "n", "R_m", "beta",
                                                      "eta", "rho_n"]
    with pytest.raises(TypeError):
        SystemConfig(M=5, m=1, n=2, R_m=0.2, beta=0.25, rho_n=100.0,
                     rho_m=50.0, eta=3.0)
    cfg = SystemConfig(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=2.0, rho_n=100.0)
    assert cfg.rho_m == 100.0 / 2.0
    for snr in (-7.3, 0.0, 13.0, 42.7):
        at = SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=3.7, snr_db=snr)
        assert at.rho_m == at.rho_n / 3.7 and at.with_snr(snr) == at


@pytest.mark.parametrize("eta", [0, 0.0, -1, -1.0, math.nan, math.inf, -math.inf,
                                 True, "1", None])
def test_bad_eta_rejected(eta):
    with pytest.raises(InvalidConfigError, match="eta"):
        SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=eta, snr_db=30.0)
    with pytest.raises(InvalidConfigError, match="eta"):
        SystemConfig(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=eta, rho_n=1000.0)


@pytest.mark.parametrize("eta, snr_db", [(1e-307, 30.0),     # rho_n / eta overflows
                                         (1e308, -200.0)])   # or underflows to 0
def test_eta_whose_legacy_snr_leaves_the_float_range_rejected(eta, snr_db):
    with pytest.raises(InvalidConfigError, match="eta"):
        SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=eta, snr_db=snr_db)
    cfg = SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=eta, snr_db=0.0)
    assert 0.0 < cfg.rho_m < math.inf


@pytest.mark.parametrize("kwargs", [
    dict(M=1, m=1, n=1),
    dict(m=3, n=3),
    dict(m=6),
    dict(beta=0.5),
    dict(beta=0.0),
    dict(R_m=0.0),
    dict(R_m=-1.0),
])
def test_invalid_configs_rejected(kwargs):
    base = dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, rho_n=10.0)
    base.update(kwargs)
    with pytest.raises(InvalidConfigError):
        SystemConfig(**base)


def test_db_conversion():
    assert math.isclose(db_to_linear(30.0), 1000.0)
    with pytest.raises(InvalidConfigError):
        SystemConfig.make(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=None)
