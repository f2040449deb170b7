import math

import pytest

from lorlab import discrete, probes
from lorlab.cli import main

SQRT3 = "1.7320508075688772"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_builtins(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("minkowski", "strip01", "exp2t", "c1power", "warpb"):
        assert f"name: {name}" in out


def test_geodesic_csv_header_and_determinism(capsys):
    argv = ("geodesic", "--profile", "minkowski", "--p", "0,0", "--v", "1,0.5",
            "--smax", "0.01", "--step", "0.002")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    lines = out1.splitlines()
    assert lines[1] == "s,t,x,dtds,dxds,kappa,eps"
    assert len(lines) == 2 + 6  # comment, header, 6 samples
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_geodesic_both_methods(capsys):
    code, out, _ = run(capsys, "geodesic", "--profile", "exp2t", "--p", "0,0",
                       "--v", "1,0", "--smax", "0.01", "--step", "0.005",
                       "--method", "both")
    assert code == 0
    assert out.count("s,t,x,dtds,dxds,kappa,eps") == 2
    assert "# method=quadrature" in out


@pytest.mark.parametrize("method", ["ode", "quadrature", "both"])
def test_geodesic_rejects_bad_step_and_smax(capsys, method):
    for step, smax in [("0", "1"), ("-0.1", "1"), ("0.1", "-1"), ("0.1", "0"),
                       ("nan", "1"), ("inf", "1"), ("0.1", "nan"), ("0.1", "inf")]:
        code, out, err = run(capsys, "geodesic", "--profile", "minkowski", "--p", "0,0",
                             "--v", "1,0", "--smax", smax, "--step", step,
                             "--method", method)
        assert code == 1, (step, smax)
        assert out == ""
        assert err.startswith("error: --") and "positive and finite" in err


@pytest.mark.parametrize("method", ["ode", "quadrature", "both"])
def test_geodesic_scalar_overflow_exits_cleanly(capsys, method):
    # a(400) = e^800 overflows the scalar math.exp of eval and geodesic_rhs
    code, out, err = run(capsys, "geodesic", "--profile", "exp2t", "--p", "400,0",
                         "--v", "1e-174,0", "--smax", "1", "--step", "0.5",
                         "--method", method)
    assert code == 1
    assert out == ""
    assert err.startswith("error: OverflowError: ")
    assert "Traceback" not in err


def test_geodesic_quadrature_past_the_overflow_of_e_t(capsys):
    # s = 1e300 lies at t = 300 + log1p(1e200) = 760.517..., past the overflow
    # of e^t at 709.78: x and dt/ds come from s, not from inf or nan
    code, out, err = run(capsys, "geodesic", "--profile", "exp2t", "--p", "300,0",
                         "--v", "1e-100,0", "--smax", "1e300", "--step", "1e300",
                         "--method", "quadrature")
    assert (code, err) == (0, "")
    assert out.splitlines()[3].split(",")[:5] == [
        "1e+300", "760.5170185988092", "0.0", "1e-300", "0.0"]
    # where x = kappa s = 1e430 cannot be finite, an error
    code, out, err = run(capsys, "geodesic", "--profile", "exp2t", "--p", "300,0",
                         "--v", "1,1e130", "--smax", "1e300", "--step", "1e300",
                         "--method", "quadrature")
    assert (code, out) == (1, "")
    assert err.startswith("error: QuadratureError: ") and "not finite" in err


@pytest.mark.parametrize("method", ["ode", "quadrature", "both"])
def test_geodesic_underflowed_data_exits_cleanly(capsys, method):
    # a(-400) = e^-800 underflows to 0: kappa = eps = 0, and RK4 divides by a
    code, out, err = run(capsys, "geodesic", "--profile", "exp2t", "--p=-400,0",
                         "--v", "1e174,0", "--smax", "1", "--step", "0.5",
                         "--method", method)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_geodesic_drift_tol_rejected_without_ode(capsys):
    argv = ("geodesic", "--profile", "minkowski", "--p", "0,0", "--v", "1,0",
            "--smax", "0.01", "--step", "0.005", "--drift-tol", "1e-3")
    code, out, err = run(capsys, *argv, "--method", "quadrature")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --drift-tol")
    for method in ("ode", "both"):
        code, out, _ = run(capsys, *argv, "--method", method)
        assert code == 0 and "# method=ode" in out


def test_geodesic_unknown_profile_exits_1(capsys):
    code, _, err = run(capsys, "geodesic", "--profile", "nosuch", "--p", "0,0",
                       "--v", "1,0", "--smax", "1", "--step", "0.1")
    assert code == 1
    assert "nosuch" in err


def test_geodesic_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "geodesic", "--profile", "minkowski", "--p", "0,0",
                     "--v", "1,0", "--smax", "1", "--step", "0.1", "--bogus", "3")
    assert code == 1


def test_negative_tolerance_rejected(capsys):
    code, _, err = run(capsys, "distance", "--profile", "minkowski", "--p", "0,0",
                       "--q", "2,1", "--eps-null", "-1e-9")
    assert code == 1
    assert "eps-null" in err


@pytest.mark.parametrize("argv", [
    ("distance", "--profile", "minkowski", "--p", "0,0", "--q", "2,1", "--eps-null", "nan"),
    ("geodesic", "--profile", "minkowski", "--p", "0,0", "--v", "1,0",
     "--smax", "1", "--step", "0.1", "--drift-tol", "nan"),
])
def test_nan_tolerance_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be positive" in err


_VALID_ARGS = {
    "catalog": (),
    "geodesic": ("--profile", "minkowski", "--p", "0,0", "--v", "1,0",
                 "--smax", "0.01", "--step", "0.005"),
    "distance": ("--profile", "minkowski", "--p", "0,0", "--q", "2,1"),
    "cone": ("--profile", "minkowski", "--p", "0,0", "--tmax", "1", "--n", "3"),
    "axioms": ("--profile", "minkowski", "--region", "0,1,0,1", "--n", "10"),
    "probe": ("--profile", "minkowski", "--kind", "tcc", "--p", "0,0"),
    "reduce": ("--profile", "exp2t", "--p", "1,0"),
}
_HONOURED = {("distance", "--eps-null"), ("axioms", "--eps-null"),
             ("geodesic", "--drift-tol")}


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command in _VALID_ARGS
    for flag in ("--eps-null", "--drift-tol", "--cross-tol")
    if (command, flag) not in _HONOURED
])
def test_tolerance_flag_rejected_where_not_honoured(capsys, command, flag):
    code, out, err = run(capsys, command, *_VALID_ARGS[command], flag, "1e-6")
    assert code == 1
    assert out == ""
    assert err.startswith("usage:")
    assert f"unrecognized arguments: {flag} 1e-6" in err


def test_distance_value_and_maximizer(capsys):
    code, out, _ = run(capsys, "distance", "--profile", "minkowski", "--p", "0,0",
                       "--q", "2,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"value {SQRT3}"
    assert lines[1] == "method reduction"
    assert "s,t,x,dtds,dxds,kappa,eps" in lines


def test_distance_shooting_notes_lower_bound(capsys):
    code, out, _ = run(capsys, "distance", "--profile", "warpb", "--p", "0,0",
                       "--q", "1,0")
    assert code == 0
    assert "method shooting" in out
    assert "lower bound" in out


def test_distance_past_closed_form_overflow_exits_cleanly(capsys):
    # flat time on exp2t is e^t - 1, which overflows floats past t = 709.78
    code, out, err = run(capsys, "distance", "--profile", "exp2t", "--p", "0,0",
                         "--q", "710,0")
    assert code == 0
    assert out == "value inf\nmethod reduction\n"
    assert err == ""


def test_distance_below_closed_form_overflow_is_finite(capsys):
    # T = e^709 - 1 is a finite float although its square overflows
    code, out, err = run(capsys, "distance", "--profile", "exp2t", "--p", "0,0",
                         "--q", "709,0")
    assert code == 0
    assert "Traceback" not in err
    value = float(out.splitlines()[0].removeprefix("value "))
    assert value == pytest.approx(math.expm1(709.0), rel=1e-12)


def test_distance_huge_interval_path_is_finite(capsys):
    code, out, err = run(capsys, "distance", "--profile", "exp2t", "--p", "0,0",
                         "--q", "709,1e300")
    assert code == 0
    assert "Traceback" not in err
    lines = out.splitlines()
    assert 0.0 < float(lines[0].removeprefix("value ")) < math.inf
    assert lines[2] == "s,t,x,dtds,dxds,kappa,eps"
    rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
    assert len(rows) == 65
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.filterwarnings("error")
def test_distance_path_far_up_exp2t_keeps_dtds(capsys):
    # a = e^{2t} overflows past t ~ 355, but dt/ds = e^{-t} on the geodesic
    # from (0, 0) to (709, 0) is a normal float all the way up
    code, out, err = run(capsys, "distance", "--profile", "exp2t", "--p", "0,0",
                         "--q", "709,0")
    assert code == 0
    assert err == ""
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[3:]]
    far = [(t, dtds) for _, t, _, dtds, *_ in rows if t > 355.0]
    assert len(far) == 32
    for t, dtds in far:
        assert dtds != 0.0
        assert math.isfinite(dtds)
        assert dtds == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_distance_reduction_maximizer_far_up_exp2t(capsys):
    # a = e^{2t} overflows on the whole maximizer; dt/ds = c e^{-t} with
    # c = sqrt(kappa^2 + 1) is a normal float there
    code, out, err = run(capsys, "distance", "--profile", "exp2t", "--p", "400,0",
                         "--q", "401,1e170")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[1] == "method reduction"
    rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
    assert len(rows) == 65
    for s, t, x, dtds, dxds, kappa, eps in rows:
        assert all(math.isfinite(v) for v in (s, t, x, dtds, dxds))
        assert dtds != 0.0
        c = math.sqrt(kappa * kappa + 1.0)
        assert dtds == pytest.approx(c * math.exp(-t), rel=1e-12, abs=0.0)
    assert rows[-1][1] == 401.0
    assert rows[-1][2] == pytest.approx(1e170, rel=1e-12)


def test_axioms_far_up_exp2t_pass_without_nan(capsys):
    code, out, _ = run(capsys, "axioms", "--profile", "exp2t",
                       "--region", "400,401,0,1", "--n", "5", "--seed", "1")
    assert code == 0
    assert "nan" not in out
    assert "verdict pass" in out


def test_cone_csv(capsys):
    code, out, _ = run(capsys, "cone", "--profile", "minkowski", "--p", "0,0",
                       "--tmax", "1", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x_left,x_right"
    assert lines[-1] == "1.0,-1.0,1.0"


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "1", "--n must be at least 2"), ("--n", "0", "--n must be at least 2"),
    ("--n", "-3", "--n must be at least 2"), ("--tmax", "inf", "--tmax must be finite"),
    ("--tmax", "-inf", "--tmax must be finite"), ("--tmax", "nan", "--tmax must be finite"),
])
def test_cone_rejects_a_short_grid_or_an_infinite_end(capsys, monkeypatch, flag, value, message):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr("lorlab.cli.np.linspace", refuse)
    argv = {"--profile": "minkowski", "--p": "0,0", "--tmax": "1", "--n": "3", flag: value}
    code, out, err = run(capsys, "cone", *(f"{k}={v}" for k, v in argv.items()))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert "Warning" not in err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--profile", "exp2t", "--p", "1,0")
    assert code == 0
    assert out.splitlines()[0] == "tau 1.718281828459045"


def test_reduce_rejects_warped_b(capsys):
    code, _, err = run(capsys, "reduce", "--profile", "warpb", "--p", "1,0")
    assert code == 1
    assert "NotReducible" in err


def test_axioms_report_and_dump(capsys, tmp_path):
    dump = tmp_path / "mats"
    code, out, _ = run(capsys, "axioms", "--profile", "minkowski",
                       "--region", "0,1,0,1", "--n", "30", "--seed", "3",
                       "--dump-dir", str(dump))
    assert code == 0
    assert "verdict pass" in out
    for name in ("chron", "causal", "dmat", "taumat"):
        assert (dump / f"{name}.csv").exists()
    header = (dump / "taumat.csv").read_text().splitlines()[0]
    assert header.startswith("j0,j1,")


def test_axioms_rejects_too_many_points_before_sampling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_space called")

    monkeypatch.setattr(discrete, "sample_space", refuse)
    code, _, err = run(capsys, "axioms", "--profile", "warpb", "--region", "0,1,0,1",
                       "--n", str(discrete.MAX_POINTS + 1))
    assert code == 1
    assert "TooLarge" in err


def test_probe_all_minkowski_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "probe", "--profile", "minkowski", "--kind", "all",
                       "--p", "0,0", "--q", "1,0")
    assert code == 0
    assert "consistent true" in out
    assert "finite_compactness holds_on_probe" in out
    assert not list(tmp_path.glob("witness*"))


def test_probe_strip_fc_exit_2_and_witness_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "strip01", "--kind", "fc",
                         "--p", "0.1,0", "--q", "0.2,0", "--B", "5")
    assert code == 2
    assert "fails_with_witness" in out
    witness = tmp_path / "witness_fc.txt"
    assert witness.exists()
    text = witness.read_text()
    assert "escaping_points" in text


PROBE_RECORDS = [
    (("minkowski", "fc", "0,0", "1,0"), 0, """profile minkowski
kind fc
bounded true
closed_in_domain true
finite_compactness holds_on_probe
finite_compactness.t_top 13.0
"""),
    (("minkowski", "all", "0,0", "1,0"), 0, """profile minkowski
kind all
consistent true
finite_compactness holds_on_probe
finite_compactness.t_top 13.0
timelike_cauchy holds_on_probe
timelike_cauchy.tail_diameter 5.8673322200775146e-08
condition_a holds_on_probe
condition_a.max_param inf
"""),
    (("strip01", "fc", "0.1,0", "0.2,0"), 2, """profile strip01
kind fc
bounded false
closed_in_domain false
finite_compactness fails_with_witness
"""),
    (("strip01", "all", "0.1,0", "0.2,0", "--ca-B", "2,10"), 2, """profile strip01
kind all
consistent true
finite_compactness fails_with_witness
timelike_cauchy fails_with_witness
timelike_cauchy.tail_diameter 5.280599002510655e-08
condition_a fails_with_witness
condition_a.bounded_by 0.8999999999999774
condition_a.max_param 0.8
"""),
]


@pytest.mark.parametrize("args, want_code, want", PROBE_RECORDS,
                         ids=["minkowski-fc", "minkowski-all", "strip01-fc", "strip01-all"])
def test_probe_records_need_no_trace(capsys, tmp_path, monkeypatch, args, want_code, want):
    # bounded and closed_in_domain are the verdict; the records are those
    # printed when every probe traced its region
    def refuse(*args):
        raise AssertionError("the region was traced")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(probes, "_trace_region", refuse)
    name, kind, p, q, *rest = args
    code, out, _ = run(capsys, "probe", "--profile", name, "--kind", kind, "--p", p,
                       "--q", q, "--B", "5", *rest)
    assert (code, out) == (want_code, want)


@pytest.mark.parametrize("kind, flag", [("ca", "--ca-B=,"), ("ca", "--ca-B=-1"),
                                        ("ca", "--ca-B=0,10"), ("fc", "--B=nan"),
                                        ("fc", "--B=inf"), ("ca", "--ca-B=10,inf")])
def test_probe_rejects_vacuous_bounds(capsys, tmp_path, monkeypatch, kind, flag):
    # no bound, or one that every T passes or fails, gives no verdict
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", kind,
                         "--p", "0,0", "--q", "1,0", flag)
    assert code == 1
    assert "holds" not in out and "fails" not in out
    assert "bound" in err
    assert not list(tmp_path.glob("witness*"))


def test_probe_tcc_kind(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "probe", "--profile", "strip01", "--kind", "tcc",
                       "--p", "0.1,0", "--cauchy-span", "2.0")
    assert code == 2
    assert "timelike_cauchy fails_with_witness" in out
    assert (tmp_path / "witness_tcc.txt").exists()


def test_probe_tcc_needs_no_q(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", "tcc",
                         "--p", "0,0")
    assert code == 0, err
    assert "timelike_cauchy holds_on_probe" in out


@pytest.mark.parametrize("kind", ["fc", "ca", "all"])
def test_probe_without_q_rejected_where_read(capsys, kind):
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", kind,
                         "--p", "0,0")
    assert code == 1
    assert out == ""
    assert "probe needs --q" in err


@pytest.mark.parametrize("kind, flags", [
    ("tcc", ("--B", "7", "--ca-B", "1,2")),
    ("tcc", ("--ca-B", "1,2")),
    ("fc", ("--cauchy-n", "5", "--cauchy-span", "3")),
    ("fc", ("--v", "1,0.5")),
    ("ca", ("--B", "7")),
    ("ca", ("--cauchy-n", "5")),
])
def test_probe_rejects_flags_its_kind_does_not_read(capsys, tmp_path, monkeypatch, kind, flags):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", kind,
                         "--p", "0,0", "--q", "1,0", *flags)
    assert code == 1
    assert out == ""
    assert "does not read" in err
    assert not list(tmp_path.glob("witness*"))


@pytest.mark.parametrize("kind, flags", [
    ("fc", ("--B", "4")),
    ("ca", ("--v", "1,0.5", "--ca-B", "3,30")),
    ("tcc", ("--v", "1,0.5", "--cauchy-span", "0.5", "--cauchy-n", "5")),
    ("all", ("--B", "4", "--v", "1,0.5", "--ca-B", "3,30", "--cauchy-n", "5")),
])
def test_probe_accepts_the_flags_its_kind_reads(capsys, tmp_path, monkeypatch, kind, flags):
    monkeypatch.chdir(tmp_path)
    q = () if kind == "tcc" else ("--q", "1,0")
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", kind,
                         "--p", "0,0", *q, *flags)
    assert code in (0, 2), err  # a verdict either way
    assert f"kind {kind}" in out


def test_axioms_byte_deterministic(capsys):
    argv = ("axioms", "--profile", "exp2t", "--region", "0,1,0,1",
            "--n", "25", "--seed", "11")
    code, out1, _ = run(capsys, *argv)
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    assert out1 == out2


def test_axioms_byte_deterministic_shooting(capsys, tmp_path):
    # warpb takes the shooting route; its dumped taumat repeats byte for byte
    argv = ("axioms", "--profile", "warpb", "--region", "0,1,0,1",
            "--n", "25", "--seed", "11")
    code, out1, _ = run(capsys, *argv, "--dump-dir", str(tmp_path / "a"))
    code, out2, _ = run(capsys, *argv, "--dump-dir", str(tmp_path / "b"))
    assert code == 0
    assert out1 == out2
    taumat = (tmp_path / "a" / "taumat.csv").read_bytes()
    assert taumat == (tmp_path / "b" / "taumat.csv").read_bytes()
    rows = taumat.decode().splitlines()[1:]  # below the column header
    assert any(float(v) > 0.0 for row in rows for v in row.split(","))


def test_probe_config_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("q: 0.25,0\nfc_bound: 4.0\n")
    code, out, _ = run(capsys, "probe", "--profile", "strip01", "--kind", "fc",
                       "--p", "0.1,0", "--config", str(cfg))
    assert code == 2  # strip still escapes


def test_probe_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("qq: 0.25,0\n")
    code, _, err = run(capsys, "probe", "--profile", "minkowski", "--kind", "fc",
                       "--p", "0,0", "--q", "1,0", "--config", str(cfg))
    assert code == 1
    assert "unknown" in err


@pytest.mark.parametrize("span", ["nan", "inf", "-1"])
def test_probe_tcc_rejects_a_span_with_no_finite_cap(capsys, tmp_path, monkeypatch, span):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", "tcc",
                         "--p", "0,0", "--cauchy-span", span)
    assert code == 1
    assert out == ""
    assert "Cauchy span" in err
    assert not (tmp_path / "witness_tcc.txt").exists()


@pytest.mark.parametrize("n", ["-1", "0", "2"])
def test_probe_tcc_rejects_a_sequence_shorter_than_three(capsys, tmp_path, monkeypatch, n):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", "tcc",
                         "--p", "0,0", "--cauchy-n", n)
    assert code == 1
    assert out == ""
    assert f"Cauchy sequence length n must be an integer of at least 3, got {n}" in err
    assert not (tmp_path / "witness_tcc.txt").exists()


def test_axioms_rejects_a_nan_tolerance(capsys):
    code, out, err = run(capsys, "axioms", "--profile", "minkowski", "--region", "0,1,0,1",
                         "--n", "20", "--tol", "nan")
    assert code == 1
    assert out == ""
    assert "tol must be finite and non-negative" in err


def test_probe_tcc_rejects_q(capsys, tmp_path, monkeypatch):
    # tcc starts its sequence at --p; a --q it would ignore is an error
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", "tcc",
                         "--p", "0,0", "--q", "0.2,0")
    assert code == 1
    assert out == ""
    assert "does not read --q" in err


@pytest.mark.parametrize("kind, line", [
    ("fc", "ca_bounds: 1,2"),
    ("fc", "cauchy_len: 5"),
    ("ca", "fc_bound: 4.0"),
    ("tcc", "q: 0.25,0"),
    ("tcc", "ca_direction: 1,0.5"),
])
def test_probe_config_rejects_keys_its_kind_does_not_read(capsys, tmp_path, monkeypatch,
                                                           kind, line):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(line + "\n")
    q = () if kind == "tcc" else ("--q", "1,0")
    code, out, err = run(capsys, "probe", "--profile", "minkowski", "--kind", kind,
                         "--p", "0,0", *q, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"does not read config key {line.split(':')[0]!r}" in err


@pytest.mark.parametrize("kind, line", [
    ("ca", "cauchy_span: 2.0"),  # read by tcc only, which kind all runs too
    ("tcc", "cauchy_span: 2.0"),
    ("fc", "q: 1,0"),
])
def test_probe_config_accepts_keys_its_kind_reads(capsys, tmp_path, monkeypatch, kind, line):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(line + "\n")
    q = ("--q", "1,0") if kind == "ca" else ()
    code, out, err = run(capsys, "probe", "--profile", "minkowski",
                         "--kind", "all" if kind == "ca" else kind, "--p", "0,0", *q,
                         "--config", str(cfg))
    assert code in (0, 2), err


def test_profile_file_loading(capsys, tmp_path):
    record = (
        "name: halfwarp\n"
        "domain: -2.0 2.0\n"
        "alpha: 1.0\n"
        "terms_a:\n"
        "  const 1.0\n"
        "  power 0.5 0.0 2.0\n"
        "terms_b:\n"
        "  const 1.0\n"
    )
    path = tmp_path / "prof.txt"
    path.write_text(record)
    code, out, _ = run(capsys, "reduce", "--profile-file", str(path), "--p", "1,0")
    assert code == 0
    assert out.startswith("tau ")


def test_out_file(capsys, tmp_path):
    out_path = tmp_path / "cone.csv"
    code, out, _ = run(capsys, "cone", "--profile", "minkowski", "--p", "0,0",
                       "--tmax", "1", "--n", "3", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[0] == "t,x_left,x_right"
