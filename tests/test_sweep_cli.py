import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

import hnoma.asymptotic
import hnoma.cli
import hnoma.exact
import hnoma.sweep
import hnoma.validate
from hnoma import IntegrationFailureError, InvalidConfigError
from hnoma.cli import EXIT_CONFIG, EXIT_OK, FIGURES, load_preset, main
from hnoma.sweep import (CSV_COLUMNS, SweepSpec, rows_to_csv, run_sweep,
                         write_rows)
from hnoma.validate import run_validation

from conftest import SEED


def _spec(**kw):
    base = dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0,
                snr_db=(10.0, 20.0), schemes=("HSIC-PA",),
                methods=("mc", "exact"), quantity="contended-loss",
                trials=20_000, seed=SEED, label="t")
    base.update(kw)
    return SweepSpec.from_dict(base)


def _to_dict(spec):
    """``spec`` as the JSON a sweep file holds."""
    d = asdict(spec)
    for key in ("snr_db", "schemes", "methods"):
        d[key] = list(d[key])
    return d


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        _spec(schemes=())
    with pytest.raises(InvalidConfigError):
        _spec(snr_db=())
    with pytest.raises(InvalidConfigError):
        _spec(quantity="nope")
    with pytest.raises(InvalidConfigError):
        _spec(quantity="underperformance", methods=("exact",))
    with pytest.raises(InvalidConfigError):
        _spec(quantity="contended-loss", schemes=("FSIC",))
    with pytest.raises(InvalidConfigError):
        _spec(beta=0.7)


def test_run_sweep_rows_and_determinism():
    spec = _spec()
    rows = run_sweep([spec])[0]
    assert len(rows) == len(spec.snr_db) * len(spec.methods)
    assert rows[0]["regime"] == "m<n:T1c1:T2c1"
    mc_rows = [r for r in rows if r["method"] == "mc"]
    assert all(r["gamma_mean"] is not None for r in mc_rows)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep([spec])[0])
    header = rows_to_csv(rows).splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_integration_failure_is_a_row_not_an_abort(monkeypatch):
    def fail(*args, **kwargs):
        raise IntegrationFailureError("value=0.0, err=1.0")

    exact_rows = run_sweep([_spec(methods=("exact",))])[0]
    monkeypatch.setattr(hnoma.sweep, "integrate_events", fail)
    spec = _spec(methods=("exact", "numeric-integration"))
    rows = run_sweep([spec])[0]
    assert len(rows) == len(spec.snr_db) * len(spec.schemes) * len(spec.methods)
    assert [r for r in rows if r["method"] == "exact"] == exact_rows
    for row in rows:
        if row["method"] != "exact":
            assert row["value"] is None
            assert row["regime"] == "error:IntegrationFailureError"


def test_a_cell_that_does_not_converge_fails_alone(monkeypatch):
    # segments run cell by cell, so the last one belongs to the last cell
    import hnoma.mc
    real = hnoma.mc.adaptive_integrate

    def last_segment_fails(*args, **kwargs):
        values, errs, oks = real(*args, **kwargs)
        oks[-1] = False
        return values, errs, oks

    spec = _spec(methods=("exact", "numeric-integration"), snr_db=(0.0, 10.0, 20.0))
    good = run_sweep([spec])[0]
    monkeypatch.setattr(hnoma.mc, "adaptive_integrate", last_segment_fails)
    rows = run_sweep([spec])[0]
    assert rows[:-1] == good[:-1]
    assert all(r["value"] is not None for r in rows[:-1])
    assert rows[-1]["method"] == "numeric-integration" and rows[-1]["snr_db"] == 20.0
    assert rows[-1]["value"] is None
    assert rows[-1]["regime"] == "error:IntegrationFailureError"
    # a cell whose region cannot be built fails alone too
    monkeypatch.setattr(hnoma.mc, "adaptive_integrate", real)
    build = hnoma.sweep.region_contended_loss

    def no_region_at_10_db(cfg):
        if cfg.rho_n == 10.0:
            raise ZeroDivisionError("float division by zero")
        return build(cfg)

    monkeypatch.setattr(hnoma.sweep, "region_contended_loss", no_region_at_10_db)
    rows = run_sweep([spec])[0]
    assert rows[:3] + rows[4:] == good[:3] + good[4:]
    assert rows[3]["snr_db"] == 10.0 and rows[3]["method"] == "numeric-integration"
    assert rows[3]["value"] is None and rows[3]["regime"] == "error:ZeroDivisionError"


def test_a_sweep_integrates_in_one_search_and_one_pass(monkeypatch):
    import hnoma.mc
    calls = {"_region_breakpoints": 0, "adaptive_integrate": 0}
    for name in calls:
        def counted(*args, _real=getattr(hnoma.mc, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(hnoma.mc, name, counted)
    for spec in (_spec(methods=("exact", "numeric-integration"),
                       snr_db=(0.0, 10.0, 20.0, 30.0)),
                 _spec(quantity="underperformance", methods=("numeric-integration",),
                       schemes=("FSIC", "HSIC-NPA", "HSIC-PA"), snr_db=(5.0, 15.0))):
        rows = run_sweep([spec])[0]
        assert all(r["value"] is not None for r in rows)
        assert calls == {"_region_breakpoints": 1, "adaptive_integrate": 1}
        calls.update(dict.fromkeys(calls, 0))


def test_underperformance_sweep_covers_schemes(tmp_path):
    spec = _spec(quantity="underperformance",
                 schemes=("FSIC", "HSIC-NPA", "HSIC-PA"),
                 methods=("mc", "numeric-integration"), snr_db=(12.0,))
    rows = run_sweep([spec])[0]
    assert len(rows) == 6
    path = tmp_path / "out.json"
    write_rows(rows, str(path), "json")
    data = json.loads(path.read_text())
    assert len(data) == 6


def test_presets_exist_and_cover_all_table_columns():
    seen = set()
    for name in FIGURES:
        preset = load_preset(name)
        assert preset["name"] == name
        for raw in preset["sweeps"]:
            spec = SweepSpec.from_dict(raw)
            from hnoma.exact import regime_label
            for snr in spec.snr_db:
                seen.add(regime_label(spec.config_at(snr)))
    # every branch column of both orientations shows up in some preset
    t1_lt = {lab.split(":")[1] for lab in seen if lab.startswith("m<n")}
    t2_lt = {lab.split(":")[2] for lab in seen if lab.startswith("m<n")}
    t1_gt = {lab.split(":")[1] for lab in seen if lab.startswith("m>n")}
    t2_gt = {lab.split(":")[2] for lab in seen if lab.startswith("m>n")}
    assert t1_lt == {"T1c1", "T1c2", "T1c3", "T1c4"}
    assert t2_lt == {"T2c1", "T2c2", "T2c3"}
    assert t1_gt == {"T1c1", "T1c2", "T1c3"}
    assert t2_gt == {"T2c1", "T2c2", "T2c3"}


def test_cli_sweep_and_rerun_byte_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec())))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(spec_path), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_creates_the_output_directory(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec())))
    out = tmp_path / "new" / "dir" / "x.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_sweep_missing_config_creates_nothing(tmp_path):
    out = tmp_path / "new" / "x.csv"
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.parent.exists()


def test_cli_figure_writes_curve_files(tmp_path):
    out = tmp_path / "figs"
    code = main(["figure", "fig1", "--out", str(out), "--trials", "5000"])
    assert code == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["fig1_n2.csv", "fig1_n3.csv", "fig1_n4.csv", "fig1_n5.csv"]


def test_cli_figure_bad_override_creates_nothing(tmp_path):
    # every curve's spec parses, with the overrides, before the directory
    # is made
    out = tmp_path / "d"
    for trials in ("0", "-3"):
        assert main(["figure", "fig1", "--trials", trials,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


def test_figure_and_sweep_never_import_scipy(tmp_path):
    # scipy is a test-only dependency: the command line must run without it
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec(
        methods=("mc", "exact", "asymptotic", "numeric-integration"),
        trials=2_000))))
    script = (
        "import sys\n"
        "from hnoma.cli import main\n"
        f"assert main(['figure', 'fig1', '--trials', '2000', '--out', {str(tmp_path / 'fig')!r}]) == 0\n"
        f"assert main(['sweep', '--config', {str(spec_path)!r}, '--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
        "assert main(['validate', '--trials', '60000']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_process_output(script) == "[]"
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert {"mc", "exact", "asymptotic", "numeric-integration"} <= {
        r.split(",")[2] for r in rows[1:]}


def _fresh_process_output(script):
    """The last line ``script`` prints in a new interpreter that imports
    hnoma from this source tree."""
    src = os.path.dirname(os.path.dirname(hnoma.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=300,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_oracle_never_imports_numpy_ma(tmp_path):
    # at 40 dB the clauses span a ratio above 100, so the breakpoint scan
    # merges its linear and geometric grids
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec(
        methods=("numeric-integration",), snr_db=(0.0, 40.0),
        quantity="underperformance", schemes=("FSIC", "HSIC-NPA", "HSIC-PA")))))
    script = (
        "import sys\n"
        "from hnoma.cli import main\n"
        f"assert main(['sweep', '--config', {str(spec_path)!r}, '--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    assert _fresh_process_output(script) == "False"
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 6


def _count_draws(monkeypatch):
    """The (size, ranks) of every block ``hnoma.mc`` draws from now on, its
    size summed over its leaves, and the leaves drawn.  A block starts
    with its ``stream(seed, block)``."""
    import hnoma.mc

    calls, blocks = [], []
    stream, sample = hnoma.mc.stream, hnoma.mc.sample_gain_ranks

    def started(seed, block):
        calls.append((0, ()))
        return stream(seed, block)

    def counted(M, rng, size, ranks, out=None):
        calls[-1] = (calls[-1][0] + size, tuple(ranks))
        blocks.append(sample(M, rng, size, ranks, out=out))
        return blocks[-1]

    monkeypatch.setattr(hnoma.mc, "stream", started)
    monkeypatch.setattr(hnoma.mc, "sample_gain_ranks", counted)
    return calls, blocks


def test_figure_draws_its_block_once(tmp_path, monkeypatch):
    # a preset's curves share M, seed and trials, so one draw feeds all
    calls, blocks = _count_draws(monkeypatch)
    out = tmp_path / "fig"
    assert main(["figure", "fig1", "--trials", "20000", "--out", str(out)]) == EXIT_OK
    sizes = [size for size, _ in calls]
    assert sizes == [20_000]
    (block,) = blocks
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    for raw in load_preset("fig1")["sweeps"]:
        spec = replace(SweepSpec.from_dict(raw), trials=20_000)
        fresh = rows_to_csv(run_sweep([spec])[0])  # every curve draws its own block
        assert (out / f"fig1_{spec.label}.csv").read_text() == fresh
    assert len(calls) == 5


def test_figure_over_two_blocks_draws_each_once(tmp_path, monkeypatch):
    # each of the two blocks of 10^6 draws is drawn once, for all four
    # curves: every block drawn takes one stream(seed, block)
    import hnoma.mc

    streams = []
    stream = hnoma.mc.stream
    monkeypatch.setattr(hnoma.mc, "stream",
                        lambda seed, block: streams.append(block) or stream(seed, block))
    assert main(["figure", "fig1", "--trials", "2000000", "--out", str(tmp_path)]) == EXIT_OK
    assert streams == [0, 1]


def test_figure_draws_only_the_ranks_it_reads(tmp_path, monkeypatch):
    # fig5a's curves all read ranks 2 and 5, so its block holds two of the
    # five; fig1's curves read every rank
    calls, _ = _count_draws(monkeypatch)
    for fig in ("fig5a", "fig1"):
        assert main(["figure", fig, "--trials", "2000", "--out", str(tmp_path)]) == EXIT_OK
    assert calls == [(2000, (2, 5)), (2000, (1, 2, 3, 4, 5))]


def test_validation_draws_one_block_per_config(monkeypatch):
    # one pass over each config's draws feeds all of validate's MC checks
    from hnoma.validate import DEFAULT_CONFIGS

    calls, _ = _count_draws(monkeypatch)
    run_validation()
    assert calls == [(200_000, (p["m"], p["n"])) for p in DEFAULT_CONFIGS]


def test_cli_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": 5}))
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")]) \
        == EXIT_CONFIG
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(dict(_to_dict(_spec()), schemes=[])))
    assert main(["sweep", "--config", str(empty), "--out", str(tmp_path / "y")]) \
        == EXIT_CONFIG
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "z")]) == EXIT_CONFIG


def test_cli_spec_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    for i, raw in enumerate(("ab", ["abc"])):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"o{i}.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")


def test_cli_zero_power_ratio_is_a_config_error(tmp_path, capsys):
    for i, eta in enumerate((0, -0.0)):
        spec_path = tmp_path / f"spec{i}.json"
        spec_path.write_text(json.dumps(dict(_to_dict(_spec()), eta=eta)))
        assert main(["sweep", "--config", str(spec_path),
                     "--out", str(tmp_path / f"o{i}.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        scenarios = tmp_path / f"scenarios{i}.json"
        scenarios.write_text(json.dumps([dict(M=5, m=1, n=2, R_m=0.2, beta=0.25,
                                              eta=eta, snr_db=20.0)]))
        assert main(["validate", "--config", str(scenarios)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


def test_cli_validate_malformed_fields_are_config_errors(tmp_path, monkeypatch, capsys):
    # the scenario fields are checked where the config is built, so
    # validate --config refuses what sweep refuses, before any report
    def no_work(cfg, *args, **kwargs):
        raise AssertionError("validation ran on a malformed scenario")

    monkeypatch.setattr(hnoma.validate, "p_t_exact", no_work)
    base = dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=20.0)
    for i, bad in enumerate((dict(m=True), dict(snr_db=True), dict(M=5.0),
                             dict(n=2.0), dict(R_m=True), dict(eta=True),
                             dict(beta="0.25"))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps([dict(base, **bad)]))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("m, n", [(1, 2), (3, 1)])
def test_cli_sweep_one_ulp_above_a_column_threshold(tmp_path, m, n):
    # eta one ulp above first_lo = (1 - beta) / beta^2 = 12, where the
    # first-stage-loss line meets the diagonal at some SNRs and not others
    spec = dict(M=5, m=m, n=n, R_m=0.2, beta=0.25, eta=12.000000000000002,
                snr_db=[0, 10, 20], methods=["exact", "asymptotic", "numeric-integration"],
                label="seam")
    path = tmp_path / "seam.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "seam.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    rows = run_sweep([SweepSpec.from_dict(spec)])[0]
    assert out.read_text() == rows_to_csv(rows)
    assert len(rows) == 9
    assert not any(r["regime"].startswith("error:") for r in rows)
    value = {(r["snr_db"], r["method"]): r["value"] for r in rows}
    for snr in spec["snr_db"]:
        assert abs(value[snr, "exact"] - value[snr, "numeric-integration"]) <= 1e-8


def test_cli_flags_do_not_carry_over_between_calls(tmp_path, monkeypatch):
    # main() parses every call afresh with the one parser built at import
    monkeypatch.setattr(hnoma.cli.argparse, "ArgumentParser", None)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["figure", "fig1", "--trials", "2000", "--seed", "5",
                 "--out", str(first)]) == EXIT_OK
    assert main(["figure", "fig1", "--trials", "2000", "--out", str(second)]) == EXIT_OK
    for raw in load_preset("fig1")["sweeps"]:
        spec = replace(SweepSpec.from_dict(raw), trials=2000)
        path = f"fig1_{spec.label}.csv"
        assert (first / path).read_text() == rows_to_csv(run_sweep([replace(spec, seed=5)])[0])
        assert (second / path).read_text() == rows_to_csv(run_sweep([spec])[0])


def test_cli_program_errors_are_not_config_errors(tmp_path, monkeypatch):
    def broken(spec):
        raise TypeError("bug inside the sweep")

    monkeypatch.setattr(hnoma.cli, "run_sweep", broken)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec())))
    with pytest.raises(TypeError, match="bug inside the sweep"):
        main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "o")])


def test_cli_malformed_fields_stay_config_errors(tmp_path):
    # fields that would otherwise raise TypeError deep inside the sweep
    # or write a row with snr_db=True: all are refused when the spec parses
    for i, bad in enumerate((dict(snr_db=[10.0, "20"]),
                             dict(methods=["mc"], seed="abc"),
                             dict(trials=2e4), dict(M=5.0), dict(m=1.0),
                             dict(n=2.0), dict(n_c=256.0), dict(snr_db=[True]),
                             dict(seed=True), dict(M=True), dict(R_m=True),
                             dict(eta=True), dict(R_m=True, eta=True),
                             # specs no engine can run: no OMA slot to
                             # compare against, unknown scheme or method
                             dict(quantity="underperformance", schemes=["OMA"],
                                  methods=["mc", "numeric-integration"]),
                             dict(schemes=["foo"]), dict(methods=["foo"]))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(_to_dict(_spec()), **bad)))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / f"o{i}")]) == EXIT_CONFIG
        assert not (tmp_path / f"o{i}").exists()


def test_cli_non_finite_inputs_are_config_errors(tmp_path):
    nan, inf = float("nan"), float("inf")
    # 4000 dB and R_m = 1100 overflow a float once made linear
    for i, bad in enumerate((dict(snr_db=[nan, 10.0]), dict(R_m=nan),
                             dict(eta=inf), dict(snr_db=[4000]), dict(R_m=1100))):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(dict(_to_dict(_spec()), **bad)))
        out = tmp_path / f"o{i}.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()
    # a later SNR is checked per row, like any other invalid point
    rows = run_sweep([_spec(snr_db=(10.0, nan))])[0]
    assert rows[0]["regime"] == "m<n:T1c1:T2c1"
    assert all(r["regime"] == "error:InvalidConfigError" and r["value"] is None
               for r in rows[2:])
    rows = run_sweep([_spec(snr_db=(10.0, 4000.0))])[0]
    assert rows[0]["regime"] == "m<n:T1c1:T2c1"
    assert all(r["snr_db"] == 4000.0 and r["regime"] == "error:InvalidConfigError"
               and r["value"] is None for r in rows[2:])


def test_cli_refuses_an_r_m_whose_target_sinr_rounds_to_zero(tmp_path):
    # 2^1e-17 rounds to 1, so ε_m = 2^R_m - 1 is 0 and the thresholds
    # divide by it; 2^1e-15 does not, and that spec still runs
    for i, (R_m, code) in enumerate(((1e-17, EXIT_CONFIG), (1e-15, EXIT_OK))):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(dict(_to_dict(_spec()), R_m=R_m)))
        out = tmp_path / f"o{i}.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)
    assert len(out.read_text().splitlines()) == 1 + 4


def test_overflowing_curves_fail_their_row_without_a_warning(tmp_path):
    # at R_m = 1000 back-substitution curves overflow to inf, which checks
    # nothing; that fails the row, silently, not the run
    import warnings
    spec = _spec(R_m=1000, snr_db=(10, 3000),
                 methods=("mc", "exact", "asymptotic", "numeric-integration"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_to_dict(spec)))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8
    assert lines[2].startswith("10,HSIC-PA,exact,,,,error:InvalidConfigError")
    assert lines[6].startswith("3000,HSIC-PA,exact,,,,error:InvalidConfigError")


def test_an_snr_whose_constants_fail_fails_only_its_own_row():
    # 10 and 3000 dB are evaluated in one batch; only 3000 dB fails
    # back-substitution, and only its asymptotic scaling overflows
    rows = run_sweep([_spec(snr_db=(10, 3000), methods=("exact", "asymptotic"))])[0]
    assert [r["regime"] for r in rows] == ["m<n:T1c1:T2c1", "m<n:T1c1:T2c1",
                                           "error:InvalidConfigError",
                                           "error:OverflowError"]
    assert rows[0]["value"] == hnoma.exact.p_t_exact(_spec().config_at(10)).value


@pytest.mark.parametrize("m, n", [(1, 2), (3, 1)])
def test_a_sweep_evaluates_each_sub_event_once_for_all_its_snrs(monkeypatch, m, n):
    spec = _spec(m=m, n=n, snr_db=tuple(range(0, 61, 5)), methods=("exact", "asymptotic"))
    sub_events = len(hnoma.exact.exact_pt_terms_batch([spec.config_at(10)])[0])
    calls = {"mass": 0, "coefficient": 0, "constants": 0, "label": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(hnoma.exact, "mass_upper_interval", "mass")
    counted(hnoma.exact, "mass_lower_interval", "mass")
    counted(hnoma.asymptotic, "asymptotic_pt_terms", "coefficient")
    counted(hnoma.exact, "compute_constants", "constants")
    counted(hnoma.sweep, "regime_label", "label")
    rows = run_sweep([spec])[0]
    assert len(rows) == 26
    assert not any(r["regime"].startswith("error") for r in rows)
    assert 1 <= calls["mass"] <= sub_events
    assert calls["coefficient"] == 1
    # one constants pass for the exact batch, one for the unit-SNR config
    assert calls["constants"] == 2
    assert calls["label"] == 1


def test_cli_sweep_to_a_directory_is_a_config_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_to_dict(_spec(methods=("exact",)))))
    assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path)]) \
        == EXIT_CONFIG


def test_cli_validate_rejects_an_empty_config_list(tmp_path, monkeypatch):
    def no_work(cfg, *args, **kwargs):
        raise AssertionError("validation ran on an empty config list")

    monkeypatch.setattr(hnoma.validate, "p_t_exact", no_work)
    path = tmp_path / "none.json"
    path.write_text("[]")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


def test_cli_validate_passes(capsys):
    code = main(["validate", "--trials", "60000"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "checks passed" in out


def test_cli_validate_rejects_nonpositive_trials(monkeypatch):
    def no_work(cfg, *args, **kwargs):
        raise AssertionError("validation ran before rejecting the trials")

    monkeypatch.setattr(hnoma.validate, "p_t_exact", no_work)
    for trials in ("0", "-1", "-200000"):
        assert main(["validate", "--trials", trials]) == EXIT_CONFIG
    with pytest.raises(InvalidConfigError):
        run_validation(trials=0)


def test_cli_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    # numpy's SeedSequence takes only non-negative seeds: each command
    # refuses a negative one before it writes or validates anything
    def no_work(cfg, *args, **kwargs):
        raise AssertionError("validation ran before rejecting the seed")

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**_to_dict(_spec()), "seed": -5}))
    out = tmp_path / "new" / "x.csv"
    assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.parent.exists()
    figs = tmp_path / "figs"
    assert main(["figure", "fig1", "--seed", "-1", "--trials", "100",
                 "--out", str(figs)]) == EXIT_CONFIG
    assert not figs.exists()
    monkeypatch.setattr(hnoma.validate, "p_t_exact", no_work)
    assert main(["validate", "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("seed=-") == 3
    with pytest.raises(InvalidConfigError):
        run_validation(seed=-1)


def test_validation_negative_control_names_invariant(monkeypatch):
    # corrupting a derived constant must trip a named check; shrink the
    # crossing point (inflating it only appends zero-mass interval, which
    # the product-form kernels clip away)
    compute = hnoma.exact.compute_constants

    def corrupt(cfg):
        k = compute(cfg)
        return replace(k, z_1=k.z_1 * 0.7)

    monkeypatch.setattr(hnoma.exact, "compute_constants", corrupt)
    rows = run_validation(configs=[dict(M=5, m=1, n=2, R_m=0.2, beta=0.25,
                                        eta=1.0, snr_db=20.0)],
                          trials=60_000, seed=SEED)
    failed = [r.invariant for r in rows if not r.passed]
    assert "exact-vs-integration" in failed
    assert all(r.regime for r in rows)  # regime column reported per config


def test_validation_reports_a_decomposition_that_stops_tiling(monkeypatch, capsys):
    # swapping the legacy-gain limits of P_T2_1 and P_T2_2 makes the MC
    # decomposition's cells stop tiling the loss event: validate must name
    # that in a FAIL row and still print every other row
    import hnoma.mc
    table = hnoma.mc.contended_terms

    def swapped(cfg):
        out = table(cfg)
        if out["P_T2_1"] is None or out["P_T2_2"] is None:
            return out
        (lo1, up1, *lim1), (lo2, up2, *lim2) = out["P_T2_1"], out["P_T2_2"]
        out["P_T2_1"], out["P_T2_2"] = (lo1, up1, *lim2), (lo2, up2, *lim1)
        return out

    monkeypatch.setattr(hnoma.mc, "contended_terms", swapped)
    code = main(["validate", "--trials", "60000"])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert any(line.startswith("[FAIL]") and "decomposition-partition" in line
               and "decomposition buckets sum to" in line for line in lines)
    assert any(line.startswith("[FAIL]") and "exact-vs-mc" in line for line in lines)
    assert sum("exact-vs-integration" in line for line in lines) == 3
    assert "checks passed" in lines[-1]
    assert "Traceback" not in captured.out + captured.err


def test_multi_block_sweep_matches_one_cell_summaries(monkeypatch):
    # three blocks, the last one partial: every cell must see the same
    # draws in the same block order as a one-cell pass would
    import hnoma.mc
    from hnoma.mc import mc_summary
    from reference import estimate_coupled, estimate_pt

    monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", 1_000)
    trials = 2_500
    specs = (_spec(quantity="underperformance", schemes=("HSIC-NPA", "HSIC-PA"),
                   methods=("mc",), snr_db=(5.0, 15.0, 25.0), trials=trials),
             _spec(methods=("mc", "exact"), snr_db=(0.0, 10.0, 20.0),
                   trials=trials))
    for spec in specs:
        contended = spec.quantity == "contended-loss"
        mc_rows = [r for r in run_sweep([spec])[0] if r["method"] == "mc"]
        assert len(mc_rows) == len(spec.snr_db) * len(spec.schemes)
        for row in mc_rows:
            cfg = spec.config_at(row["snr_db"])
            one = mc_summary([(cfg, row["scheme"])], trials, spec.seed,
                             want_pt=contended)[0]
            est = one["pt_estimate"] if contended else one["estimate"]
            assert (row["value"], row["std_err"], row["trials"]) == \
                (est.value, est.std_err, est.trials)
            assert row["gamma_mean"] == one["gamma_mean"]
            assert row["energy_mean"] == one["energy_mean"]
            if contended:
                assert estimate_pt(cfg, trials, spec.seed) == est
            else:
                coupled = estimate_coupled(cfg, trials, spec.seed)
                assert coupled[row["scheme"]] == est
