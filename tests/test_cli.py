"""CLI front end: config parsing, case dispatch, report shape, exit codes."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccati2d
from riccati2d import ConfigError, DomainSpec, ExprField, read_grid_csv, write_grid_csv
from riccati2d.cli import CASES, main, mask_timings, parse_config, run


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------


def test_minimal_config():
    cfg = parse_config("case = picard\n")
    assert cfg.case == "picard"


def test_comments_and_blank_lines():
    cfg = parse_config("# comment\n\ncase = darboux  # trailing\ndomain = 0 1 0 1\n")
    assert cfg.case == "darboux"
    assert cfg.domain.x_max == 1.0


def test_missing_case_rejected():
    with pytest.raises(ConfigError):
        parse_config("domain = 0 1 0 1\n")


def test_unknown_case_rejected():
    with pytest.raises(ConfigError, match="unknown case"):
        parse_config("case = frobnicate\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("case = picard\ncolour = blue\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("case = picard\ncase = darboux\n")


def test_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("case = picard\n# fine\nnot a kv line\n")


def test_missing_domain_validation_names_field():
    with pytest.raises(ConfigError, match="domain"):
        parse_config("case = darboux\nf = exp(x)\n")


def test_malformed_expression_rejected():
    with pytest.raises(ConfigError, match="expression"):
        parse_config("case = darboux\ndomain = 0 1 0 1\nf = exp(\n")


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config("case = picard\ntolerance = -1e-8\n")


def test_bad_oracle_spec_rejected():
    with pytest.raises(ConfigError, match="oracle"):
        parse_config("case = riccati-residual\noracle = martian nu=1\n")


@pytest.mark.parametrize(
    "spec",
    [
        "separable nu1=1 nu2=0 shift1=abc",
        "separable nu1=1 nu2=0 branch1=bogus",
        "harmonic kind=bogus",
        "harmonic n=-1",
        "exp_family nu=-1",
        "exp_family nu=nan",
        "exp_family nu=1 colour=2",
    ],
)
def test_oracle_spec_validated_at_parse_time(spec):
    with pytest.raises(ConfigError, match="line 2") as err:
        parse_config(f"case = riccati-residual\noracle = {spec}\n")
    assert err.value.line == 2


# each pair: a value just past its limit (rejected at its line) and the value at
# the limit (accepted); nothing here is run, so no extreme value is ever evaluated
@pytest.mark.parametrize(
    "bad, good, line",
    [
        ("refine = -1", "refine = 0", 2),
        ("refine = 13", "refine = 12", 2),  # default 256-node circle: 2**21 > 2**20 nodes
        ("refine = 60", "refine = 12", 2),
        ("contour = circle 0 0 1 1048577", "contour = circle 0 0 1 1048576", 2),
        (  # 15 K15 nodes per panel: 4370 * 16 * 15 > 2**20 >= 4369 * 16 * 15 points
            "contour = polyline -1 0 1 0 0 1 -1 0 4370\nrefine = 4",
            "contour = polyline -1 0 1 0 0 1 -1 0 4369\nrefine = 4",
            3,
        ),
        (
            "contour = polyline -1 0 1 0 0 1 -1 0 0",
            "contour = polyline -1 0 1 0 0 1 -1 0 1",
            2,
        ),
        ("n_terms = -1", "n_terms = 0", 2),
        ("n_terms = 128", "n_terms = 127", 2),
        ("domain = -1 1 -1 1 2048 2049", "domain = -1 1 -1 1 2048 2048", 2),
        ("tolerance = inf", "tolerance = 1e300", 2),
        ("tolerance = nan", "tolerance = 1e-300", 2),
        ("w = zpow 128", "w = zpow 127", 2),
        (  # vertices inside the default rectangle [-1.2, 1.2]^2
            "contour = polyline " + " ".join(f"{k % 2} {k % 3 / 2}" for k in range(1025)),
            "contour = polyline " + " ".join(f"{k % 2} {k % 3 / 2}" for k in range(1024)),
            2,
        ),
    ],
    ids=[
        "refine-negative",
        "refine-past-default-circle",
        "refine-60",
        "circle-nodes",
        "polyline-segment-nodes",
        "polyline-no-panels",
        "n_terms-negative",
        "n_terms-past-circle-nodes",
        "domain-points",
        "tolerance-inf",
        "tolerance-nan",
        "zpow-past-circle-nodes",
        "polyline-vertices",
    ],
)
def test_numeric_values_range_checked_at_parse_time(bad, good, line):
    with pytest.raises(ConfigError) as err:
        parse_config(f"case = all\n{bad}\n")
    assert err.value.line == line
    parse_config(f"case = all\n{good}\n")


def test_refine_flag_range_checked(tmp_path):
    cfg = write(tmp_path, "ok.cfg", "case = cauchy-riccati\n")
    assert main(["--config", cfg, "--refine", "-1"]) == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("case = darboux\ndomain = 0 1 0 1\nbase = 5 5\n", 2),  # base outside the rectangle
        ("case = darboux\nbase = 0.5 0.5\n", 2),  # base without a domain
    ],
    ids=["base-outside-domain", "base-without-domain"],
)
def test_bad_base_is_a_config_error(tmp_path, text, line):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    assert main(["--config", write(tmp_path, "base.cfg", text)]) == 2


@pytest.mark.parametrize("z0, ok", [("5 5", False), ("1.1 0", False), ("0.2 0.1", True)])
def test_z0_checked_against_the_domain(tmp_path, z0, ok):
    """Without a domain line, W lives on [-1.2, 1.2]^2 and the test square is z0 +- 0.28."""
    text = f"case = euler2-baseline\nz0 = {z0}\n"
    if ok:
        parse_config(text)
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 2
    assert main(["--config", write(tmp_path, "z0.cfg", text)]) == 2


@pytest.mark.parametrize("case", ["euler2-baseline", "all"])
def test_default_z0_checked_against_the_domain(tmp_path, case):
    """Without a z0 line, z0 = (0, 0) must lie inside the domain line's rectangle."""
    text = f"case = {case}\ndomain = 0 1 0 1\n"
    with pytest.raises(ConfigError, match="default z0") as err:
        parse_config(text)
    assert err.value.line == 2
    assert main(["--config", write(tmp_path, "z0.cfg", text)]) == 2
    parse_config(f"case = {case}\ndomain = -1 1 -1 1\n")
    parse_config("case = euler2-baseline\ndomain = 0 1 0 1\nz0 = 0.5 0.5\n")


def test_deeply_nested_expression_is_a_config_error(tmp_path):
    text = "case = darboux\ndomain = 0 1 0 1\nf = " + "(" * 250 + "x+1" + ")" * 250 + "\n"
    assert main(["--config", write(tmp_path, "deep.cfg", text)]) == 2


def test_lpath_contour_rejected():
    """An L-path from the base is never closed, so it is not a contour kind."""
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("case = cauchy-riccati\ncontour = lpath 1 1\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("case = laplace-reductions\ncontour = circle 0 0 5\n", 2),
        ("case = all\ncontour = polyline -0.5 -0.5 0.6 -0.4 0.1 1.7 -0.5 -0.5\n", 2),
        ("case = cauchy-schrodinger\ndomain = -0.5 0.5 -0.5 0.5\n", 2),  # the default circle
    ],
    ids=["circle", "polyline-vertex", "default-contour"],
)
def test_contour_outside_its_rectangle_is_a_config_error(tmp_path, text, line):
    """A contour case integrates on the domain line's rectangle, else on [-1.2, 1.2]^2;
    a contour that leaves it is rejected at its line (or the domain's), with exit 2."""
    with pytest.raises(ConfigError, match="contour") as err:
        parse_config(text)
    assert err.value.line == line
    assert main(["--config", write(tmp_path, "contour.cfg", text)]) == 2
    parse_config("case = darboux\ncontour = circle 0 0 5\n")  # darboux integrates no contour


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------


def test_all_runs_at_least_eight_identities():
    report = run(parse_config("case = all\n"))
    assert len(report["identities"]) >= 8
    assert report["overall_pass"]
    names = [e["case"] for e in report["identities"]]
    assert names == sorted(names)  # ordered by case name
    for entry in report["identities"]:
        assert set(entry) >= {"case", "residual", "tolerance", "pass", "refinement", "elapsed_ms"}
        assert entry["pass"]


def test_overall_pass_iff_every_identity_passes():
    report = run(parse_config("case = picard\ntolerance = 1e-30\n"))
    assert not report["identities"][0]["pass"]
    assert not report["overall_pass"]


def test_open_contour_reported_as_failure_with_reason():
    cfg = parse_config("case = cauchy-riccati\ncontour = polyline -1 0 1 0\n")
    report = run(cfg)
    entry = report["identities"][0]
    assert not entry["pass"]
    assert "closed" in entry["reason"]
    assert not report["overall_pass"]


def test_failed_case_reports_its_tolerance(tmp_path):
    text = "case = cauchy-riccati\ncontour = polyline -1 0 1 0\n"
    entry = run(parse_config(text))["identities"][0]
    assert entry["tolerance"] == 1e-10  # the case default, not null
    assert entry["error_type"] == "ContourError"
    out = str(tmp_path / "r.json")
    assert main(["--config", write(tmp_path, "open.cfg", text), "--out", out]) == 1


def test_unexpected_exception_contained_per_case(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr("riccati2d.cli.euler_second_baseline", broken)
    report = run(parse_config("case = all\n"))
    entries = {e["case"]: e for e in report["identities"]}
    assert len(entries) == 8
    assert sum(e["pass"] for e in entries.values()) == 7
    assert entries["euler2-baseline"]["error_type"] == "ValueError"
    assert entries["euler2-baseline"]["reason"] == "injected"
    assert "ValueError: injected" in capsys.readouterr().err  # the traceback is kept
    out = str(tmp_path / "r.json")
    assert main(["--config", write(tmp_path, "all.cfg", "case = all\n"), "--out", out]) == 4


def test_quadrature_error_is_a_failure_entry(tmp_path, monkeypatch):
    """An antiderivative whose integrand no panel count resolves fails its case."""
    from riccati2d import ComplexField, constant_field, op_Abar

    def unresolvable(u, f, prob):
        d = prob.domain  # compatible: d_y 0 - d_x sin(1e7 y) = 0
        Phi = ComplexField(constant_field(0.0, d), ExprField(d, "sin(1e7*y)"))
        return op_Abar(Phi, prob.cfg)

    monkeypatch.setattr("riccati2d.cli.darboux_v_from_u", unresolvable)
    text = "case = darboux\n"
    entry = run(parse_config(text))["identities"][0]
    assert entry["error_type"] == "QuadratureError"
    assert entry["pass"] is False and entry["residual"] is None
    assert "did not converge within 16384 panels" in entry["reason"]
    out = str(tmp_path / "r.json")
    assert main(["--config", write(tmp_path, "q.cfg", text), "--out", out]) == 1


@pytest.mark.parametrize(
    "text, error, reason",
    [
        (
            "case = laplace-reductions\ndomain = -1 1 -1 1 41 41\nf = x - 0.01\n",
            "NonvanishingError",
            "f must be nonvanishing: sampled min |f| = 0.000e+00 at (0.01",
        ),
        (
            "case = euler2-baseline\ndomain = 1 2 0 1\nz0 = 1.5 0.5\nw = zpow 3\n",
            "ZeroSetError",
            "Re W vanishes in the region: min |Re W| = 0.000e+00 at (1.039",
        ),
    ],
    ids=["laplace-f", "euler2-re-w"],
)
def test_a_zero_between_samples_fails_its_gate(text, error, reason):
    """f = x - 0.01 and Re z^3 are nonzero at every node but change sign between two:
    the gate names the hypothesis and the zero between them (both passed it before)."""
    entry = run(parse_config(text))["identities"][0]
    assert entry["error_type"] == error and entry["reason"].startswith(reason)
    assert entry["pass"] is False


_PERMUTED_CONFIGS = (
    "case = darboux\ndomain = 0 1 0 1 11 11\nbase = 0.3 0.4\nu = exp(0.6*x+0.8*y)\n"
    "f = exp(x)\nnu = 1\ntolerance = 1e-9\n# a comment\n",
    "case = cauchy-riccati\noracle = exp_family nu=1 theta=0.3\n"
    "oracle_b = exp_family nu=1 theta=2.0\ncontour = circle 0.1 0 0.5 32\nrefine = 1\n",
)


def _identities(text):
    return mask_timings(run(parse_config(text)))["identities"]


@given(data=st.data())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_permuted_config_lines_give_the_same_identities(data):
    """Config lines are key = value pairs, so their order changes no masked identity."""
    text = data.draw(st.sampled_from(_PERMUTED_CONFIGS))
    lines = data.draw(st.permutations(text.splitlines()))
    assert _identities("\n".join(lines) + "\n") == _identities(text)


def test_determinism_modulo_timings():
    cfg = parse_config("case = all\n")
    a, b = mask_timings(run(cfg)), mask_timings(run(cfg))
    assert a == b


# every named case alone, and darboux with u and f as the darboux-mesh benchmark draws them
_DETERMINISM_CONFIGS = [f"case = {case}\n" for case in CASES if case != "all"] + [
    "case = darboux\ndomain = 0 1 0 1 41 41\nu = exp(0.6394636980817737*x + 0.7688212918719032*y)\n"
    "f = exp(0.7907395085077042*x + -0.6121527829594458*y)\n"
]


def test_reports_do_not_depend_on_what_ran_before():
    """Interned expression nodes live as long as any tree holds them, so a run may
    reuse the nodes, derivatives and plans of an earlier one: each config gives
    the same masked report bytes when run twice in a row and again in reverse order."""

    def reports(configs):
        return {
            text: json.dumps(mask_timings(run(parse_config(text))), indent=2, allow_nan=False)
            for text in configs
        }

    first, again = reports(_DETERMINISM_CONFIGS), reports(_DETERMINISM_CONFIGS)
    assert again == first
    assert reports(reversed(_DETERMINISM_CONFIGS)) == first


def test_refine_extends_refinement_table():
    cfg = parse_config("case = cauchy-riccati\nrefine = 2\n")
    table = run(cfg)["identities"][0]["refinement"]
    assert len(table) == 3
    assert table[1][0] == 2 * table[0][0]


def test_config_echoed_in_report():
    text = "case = laplace-reductions\n"
    assert run(parse_config(text))["config"] == text


# ---------------------------------------------------------------------------
# main / exit codes
# ---------------------------------------------------------------------------


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_exit_zero_and_report_file(tmp_path):
    cfg = write(tmp_path, "ok.cfg", "case = riccati-residual\n")
    out = tmp_path / "report.json"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"]


def test_exit_one_on_identity_failure(tmp_path):
    cfg = write(tmp_path, "fail.cfg", "case = picard\ntolerance = 1e-30\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "r.json")]) == 1


def test_exit_two_on_config_error(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "case = nosuch\n")
    assert main(["--config", cfg]) == 2


def test_exit_two_on_usage_error():
    assert main([]) == 2


def test_exit_three_on_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 3


def test_exit_three_on_unwritable_out(tmp_path):
    cfg = write(tmp_path, "ok.cfg", "case = laplace-reductions\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "nodir" / "r.json")]) == 3


def test_dump_fields_writes_readable_csv(tmp_path):
    """Every field case = all dumps reads back as a grid; the residual ones are tiny."""
    cfg = write(tmp_path, "ok.cfg", "case = all\n")
    dump = tmp_path / "fields"
    assert main(["--config", cfg, "--out", str(tmp_path / "r.json"), "--dump-fields", str(dump)]) == 0
    grids = {p.name: read_grid_csv(p) for p in dump.iterdir()}
    assert sorted(grids) == [
        "darboux_darboux_conjugate.csv",
        "euler1_euler1_W_im.csv",
        "euler1_euler1_W_re.csv",
        "riccati-residual_riccati_residual_im.csv",
        "riccati-residual_riccati_residual_re.csv",
    ]
    for name in ("riccati_residual_re", "riccati_residual_im"):
        values = grids[f"riccati-residual_{name}.csv"].values
        assert np.max(np.abs(values)) < 1e-10  # dumped residual field is tiny


def test_refine_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "ok.cfg", "case = cauchy-riccati\nrefine = 0\n")
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "--out", str(out), "--refine", "1"]) == 0
    assert len(json.loads(out.read_text())["identities"][0]["refinement"]) == 2


def test_darboux_on_grid_backed_antiderivative(tmp_path):
    """u from CSV makes op_Abar's input grid-backed: v's partials are grid leaves."""
    dom = DomainSpec(0.0, 1.0, 0.0, 1.0, 41, 41)
    csv = tmp_path / "u.csv"
    write_grid_csv(csv, ExprField(dom, "x**2 - y**2 + 2*x").to_grid())
    text = f"case = darboux\ndomain = 0 1 0 1 41 41\nu = csv {csv}\nf = 1\nnu = 0\n"
    entry = run(parse_config(text))["identities"][0]
    assert entry["pass"]
    assert entry["residual"] < 1e-11  # order-2 differences are exact on a quadratic


def test_csv_on_another_rectangle_is_a_domain_error(tmp_path):
    """A [0,2]^2 grid under a [0,1]^2 domain line is refused, not checked on [0,2]^2."""
    csv = tmp_path / "u.csv"
    write_grid_csv(csv, ExprField(DomainSpec(0, 2, 0, 2, 41, 41), "x**2 - y**2 + 2*x").to_grid())
    text = f"case = darboux\ndomain = 0 1 0 1 41 41\nu = csv {csv}\nf = 1\nnu = 0\n"
    out = tmp_path / "r.json"
    assert main(["--config", write(tmp_path, "wide.cfg", text), "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["identities"][0]
    assert entry["error_type"] == "DomainError" and not entry["pass"]
    assert "different rectangles" in entry["reason"]


@pytest.mark.parametrize(
    "header, rows, line",
    [
        ("3,3,0,1,0,1", ["1,2,3", "1,2", "1,2,3"], 3),
        ("3,3,0,1,0,1", ["1,2,3", "1,2,3", "1,2,x"], 4),
        ("3.5,3,0,1,0,1", ["1,2,3", "1,2,3", "1,2,3"], 1),
        ("3,3,0,1,0,1", ["1,2,3", "\xff\xfe,2,3", "1,2,3"], 3),
    ],
    ids=["ragged-row", "non-numeric-cell", "non-integer-nx", "non-utf8-bytes"],
)
def test_malformed_csv_is_a_domain_error(tmp_path, header, rows, line):
    """Bad CSV content is the input's fault: a DomainError naming the file and the
    line, exit 1, never exit 4, the code for a defect of the program."""
    csv = tmp_path / "u.csv"
    csv.write_bytes(("\n".join([header, *rows]) + "\n").encode("latin-1"))
    text = f"case = darboux\ndomain = 0 1 0 1 3 3\nu = csv {csv}\nf = 1\nnu = 0\n"
    out = tmp_path / "r.json"
    assert main(["--config", write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["identities"][0]
    assert entry["error_type"] == "DomainError" and not entry["pass"]
    assert f"{csv}: line {line}:" in entry["reason"]


def test_nan_residual_fails_its_gate():
    """exp(800 x) overflows; the resulting NaN residual must fail the f gate."""
    text = (
        "case = cauchy-schrodinger\ndomain = 0 1.2 0 1.2\nu = exp(800*x)\n"
        "f = exp(800*y)\nnu = 640000\ncontour = circle 0.6 0.6 0.5 64\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        entry = run(parse_config(text))["identities"][0]
    assert not entry["pass"]
    assert entry["reason"].startswith("f is not a solution")


def test_non_finite_residual_is_null_in_strict_json(tmp_path):
    """inf - inf along the contour gives a NaN residual: written as null, never as NaN."""
    text = "case = laplace-reductions\ndomain = -1.2 1.2 -1.2 1.2\nu = 1e308*x+1e308*y\n"
    out = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        assert main(["--config", write(tmp_path, "nan.cfg", text), "--out", str(out)]) == 1
    payload = out.read_text()
    assert "NaN" not in payload and "Infinity" not in payload
    entry = json.loads(payload)["identities"][0]
    assert entry["residual"] is None and not entry["pass"]


def test_every_named_case_runs_clean(tmp_path):
    for case in CASES:
        if case == "all":
            continue
        cfg = write(tmp_path, f"{case}.cfg", f"case = {case}\n")
        assert main(["--config", cfg, "--out", str(tmp_path / "r.json")]) == 0, case


def test_no_runtime_dependency_beyond_numpy():
    """Importing the package and its CLI loads the standard library and numpy only,
    and of numpy only what ``import numpy`` loads (no ``numpy.polynomial``, say)."""
    code = (
        "import sys; before = set(sys.modules); import numpy; plain = set(sys.modules); "
        "import riccati2d, riccati2d.cli; new = set(sys.modules) - before; "
        "print(*sorted({name.split('.')[0] for name in new})); "
        "print('-', *sorted(name for name in new - plain if name.startswith('numpy.')))"
    )
    src = os.path.dirname(os.path.dirname(riccati2d.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    top, numpy_extra = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    out = top.split()
    assert "riccati2d" in out and "numpy" in out
    assert [m for m in out if m not in sys.stdlib_module_names | {"numpy", "riccati2d"}] == []
    assert numpy_extra.split() == ["-"]
