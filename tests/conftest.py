import numpy as np
import pytest

from hnoma import SystemConfig, ctally

SEED = 20250801


def make_cfg(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=20.0):
    return SystemConfig.make(M=M, m=m, n=n, R_m=R_m, beta=beta, eta=eta,
                             snr_db=snr_db)


@pytest.fixture
def fig1_cfg():
    return make_cfg()


@pytest.fixture
def numpy_path(monkeypatch, tmp_path):
    """A function that forces the compiled tally's build to fail (a cold
    cache and a missing compiler), so that ``mc_summary`` runs the numpy
    kernel for the rest of the test; later tests load it again."""
    def force():
        monkeypatch.setattr(ctally, "_cache_dirs", lambda: [str(tmp_path)])
        monkeypatch.setattr(ctally, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
        ctally.load.cache_clear()
        assert ctally.load() is None

    yield force
    ctally.load.cache_clear()


def regime_covering_configs(count=30, seed=2025):
    """Deterministic scenario set hitting every branch column of both
    orientations; padded with fully random power ratios."""
    from hnoma.exact import eta_thresholds

    rng = np.random.default_rng(seed)
    configs = []

    def sample_base():
        M = int(rng.integers(4, 7))
        m, n = rng.choice(np.arange(1, M + 1), size=2, replace=False)
        R_m = float(rng.uniform(0.2, 1.5))
        beta = float(rng.uniform(0.15, 0.45))
        snr = float(rng.uniform(8.0, 28.0))
        return M, int(m), int(n), R_m, beta, snr

    def eta_in(lo, hi):
        if np.isinf(hi):
            hi = 3.0 * lo + 5.0
        return float(rng.uniform(lo, hi) if lo < hi else lo)

    # one config per (side, table, column)
    targets = ([("lt", "t1", c) for c in (1, 2, 3, 4)]
               + [("lt", "t2", c) for c in (1, 2, 3)]
               + [("gt", "t1", c) for c in (1, 2, 3)]
               + [("gt", "t2", c) for c in (1, 2, 3)])
    for side, table, col in targets:
        while True:
            M, m, n, R_m, beta, snr = sample_base()
            if (side == "lt") != (m < n):
                m, n = n, m
            th = eta_thresholds(beta, 2.0 ** R_m - 1.0)
            if table == "t1" and side == "lt":
                edges = [1e-6, th["k_1"], th["cap_mid"], th["cap_hi"], np.inf]
            elif table == "t1":
                edges = [1e-6, th["k_1"], th["k_3"], np.inf]
            else:
                edges = [1e-6, th["first_lo"], th["k_2"], np.inf]
            eta = eta_in(edges[col - 1], edges[col])
            try:
                configs.append(SystemConfig.make(M=M, m=m, n=n, R_m=R_m,
                                                 beta=beta, eta=eta, snr_db=snr))
                break
            except Exception:
                continue
    while len(configs) < count:
        M, m, n, R_m, beta, snr = sample_base()
        eta = float(10.0 ** rng.uniform(-0.7, 1.7))
        configs.append(SystemConfig.make(M=M, m=m, n=n, R_m=R_m, beta=beta,
                                         eta=eta, snr_db=snr))
    return configs
