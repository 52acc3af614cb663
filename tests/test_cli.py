"""End-to-end tests of the command line interface against golden snapshots."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import opplab
from opplab import util
from opplab.cli import ExperimentConfig, _float_list, main

GOLDEN = Path(__file__).parent / "golden"

SQF2 = "[1,-1,-1.4142135623730951]"
#: sample bases at these T have squared column norms past the float64 range
HUGE_T = ("1e160", "1e300")
#: margulis flow times whose transport overflows the squared distances
MARGULIS_HUGE_ELL = ("180", "200", "1e300", "-1e300")
#: 20,000 expansion times 20, 21, ...
LONG_T_LIST = ",".join(str(20 + i) for i in range(20_000))
#: 30 heuristic entry bounds from 300,000 up, 4e7 candidates each
LONG_R_LADDER = ",".join(str(300_000 + i) for i in range(30))
#: dichotomy grid steps that are not positive
BAD_GRIDS = ("--grid=0", "--grid=-1")

GOLDEN_CASES = {
    "witness.csv": [
        "witness", "--form", SQF2, "--s-min", "-1", "--s-max", "1",
        "--grid", "0.5", "--eps", "0.05", "--T", "50", "--format", "csv",
    ],
    "count.csv": [
        "count", "--form", "[1,-1,-1]", "--a", "-1", "--b", "1",
        "--T", "10,20", "--samples", "20000", "--seed", "1",
    ],
    "cq.json": [
        "cq", "--form", '{"m11":0,"m22":1,"m33":0,"m13":-1}',
        "--samples", "20000", "--seed", "3",
    ],
    "rational.csv": ["rational", "--form", SQF2, "--R", "1,2,3", "--format", "csv"],
    "dichotomy.json": [
        "dichotomy", "--form", "[1,-1,-1]", "--R", "2", "--T", "16", "--format", "json",
    ],
    "equidist.csv": [
        "equidist", "--form", SQF2, "--T", "5,10", "--N", "16",
        "--f-radius", "1.5", "--seed", "2", "--format", "csv",
    ],
    "projection.csv": [
        "projection", "--random-theta", "60", "--ball-radius", "0.9", "--seed", "5",
        "--alpha", "1.5", "--b", "0.05", "--r-count", "9", "--format", "csv",
    ],
    "margulis.json": [
        "margulis", "--random-theta", "40", "--ball-radius", "0.05", "--seed", "7",
        "--alpha", "1.2", "--ell", "0.8", "--b", "0.1", "--M", "1",
        "--r-samples", "4", "--format", "json",
    ],
}


def _with_format(argv, fmt):
    """argv with its --format option, if any, replaced by ``--format fmt``."""
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2:]
    return [*argv, "--format", fmt]


# each case above in its other format
GOLDEN_CASES.update(
    (f"{Path(name).stem}.{fmt}", _with_format(argv, fmt))
    for name, argv in list(GOLDEN_CASES.items())
    for fmt in ("csv", "json")
    if Path(name).suffix != f".{fmt}"
)
for _fmt in ("csv", "json"):
    # b = a: the main term is zero, so the ratio prints as null or an empty cell
    GOLDEN_CASES[f"count_degenerate.{_fmt}"] = [
        "count", "--form", "[1,-1,-1]", "--a", "0.5", "--b", "0.5",
        "--T", "10,20", "--samples", "20000", "--seed", "1", "--format", _fmt,
    ]
    # the small-values branch: its CSV prints the witness table
    GOLDEN_CASES[f"dichotomy_small.{_fmt}"] = [
        "dichotomy", "--form", SQF2, "--R", "2", "--T", "1e8", "--format", _fmt,
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_snapshot(name, capsys):
    rc = main(GOLDEN_CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", ["projection.csv", "equidist.csv", "margulis.json"])
def test_repeated_runs_are_byte_identical(name, capsys):
    assert main(GOLDEN_CASES[name]) == 0
    first = capsys.readouterr().out
    assert main(GOLDEN_CASES[name]) == 0
    assert capsys.readouterr().out == first


def test_golden_json_outputs_parse():
    for name in GOLDEN_CASES:
        if name.endswith(".json"):
            obj = json.loads((GOLDEN / name).read_text())
            assert obj


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--form", "[1,-1", "--T", "10"],  # malformed JSON
        ["witness", "--form", "[1,-1,-1]"],  # missing required --T
        ["witness", "--form", "[1,-1,-1]", "--T", "10", "--format", "xml"],
        ["nonsense"],
        [],
        ["equidist", "--form", SQF2, "--T", "5", "--N", "0"],
        ["count", "--form", "[1,-1,-1]", "--a", "2", "--b", "1", "--T", "10"],
        ["count", "--form", "[1,-1,-1]", "--a", "0", "--b", "1", "--T", ""],
        ["cq", "--form", "[1,-1,0]"],  # degenerate form
        ["cq", "--form", "[1,1,1]"],  # definite form
        ["margulis", "--alpha", "1.5"],  # neither --theta nor --random-theta
        ["witness", "--form", "/nonexistent/path.json", "--T", "10"],
        ["witness", "--form", "[1,-1,-1]", "--T", "nan"],
        ["witness", "--form", "[1,-1,-1]", "--T", "inf"],
        ["witness", "--form", "[1,-1,-1]", "--T", "10", "--eps", "nan"],
        ["count", "--form", "[1,-1,-1]", "--a", "-1", "--b", "1", "--T", "nan"],
        ["count", "--form", "[1,-1,-1]", "--a", "-1", "--b", "1", "--T", "100000"],  # over the ceiling
        ["dichotomy", "--form", "[1,-1,-1]", "--R", "2", "--T", "nan"],
        ["projection", "--random-theta", "31623"],  # over the point ceiling
        [
            "projection", "--theta", "[[NaN,0,0,0,0],[0.1,0,0,0,0],[0,0.2,0,0,0]]",
            "--r-count", "3",
        ],
        ["margulis", "--theta", "[[NaN,0,0,0,0],[0.01,0,0,0,0]]"],
        ["equidist", "--form", SQF2, "--T", "1e20", "--N", "10"],  # transform beyond int64
        *(["equidist", "--form", SQF2, "--T", t, "--N", "10"] for t in HUGE_T),  # norms beyond float64
        # a grid and samples of 7.1 PiB, beyond the 128 TiB x86-64 user address
        # space; both counts are refused by the work ceiling before any array
        # is made
        ["projection", "--random-theta", "5", "--r-count", "1000000000000000"],
        ["equidist", "--form", SQF2, "--T", "20", "--N", "1000000000000000"],
        ["projection", "--random-theta", "50", "--r-count", "0"],  # an empty r grid
        [
            "margulis", "--theta", "[[0,0,0,0,0],[0,0,0,0,0],[0.01,0,0,0,0]]",
            "--M", "0", "--r-samples", "1", "--format", "json",
        ],  # coincident points: an inf/inf energy ratio
        # sample counts over the work ceiling, refused before the first sample
        ["equidist", "--form", SQF2, "--T", "20", "--N", "10000000"],
        ["cq", "--form", SQF2, "--samples", "100000000000"],
        ["count", "--form", SQF2, "--a", "-1", "--b", "1", "--T", "10", "--samples", "10000000000"],
        # r values and profiles over the work ceiling, refused before the first tile
        ["projection", "--random-theta", "5", "--r-count", "10000000"],
        ["margulis", "--random-theta", "5", "--r-samples", "100000000"],
        # witness grids over the work ceiling, refused before the grid is built:
        # 2.4e300 targets, a count past the float range, and 1e10 targets
        ["dichotomy", "--form", SQF2, "--R", "4", "--T", "1e9", "--grid=1e-300"],
        ["witness", "--form", SQF2, "--s-min=-1e300", "--s-max=1e300", "--grid=1e-300", "--T", "10"],
        ["witness", "--form", SQF2, "--grid", "1e-9", "--T", "10"],
        # a bump ball whose squared radius overflows float64
        ["equidist", "--form", SQF2, "--T", "20", "--N", "10", "--f-radius", "1e300"],
        # a disc past the float range, or one refused by its closed-form size
        # before any array is built; a main term of 0 (no sample has |Q| <= delta)
        ["count", "--form", SQF2, "--a=-1", "--b=1", "--T", "1e300"],
        ["count", "--form", SQF2, "--a=-1", "--b=1", "--T", "1e8"],
        ["count", "--form", SQF2, "--a=-1", "--b=1", "--T", "10", "--samples", "10000", "--delta", "1e-300"],
        # powers of R past the float range
        ["dichotomy", "--form", SQF2, "--R", "1e300", "--T", "100"],
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "100", "--a-exp=1e300"],
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "100", "--k-exp=1e300"],
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "100", "--k-exp=-1e300"],
        # scales whose powers leave float64, and a count bound past it
        ["projection", "--random-theta", "200", "--b", "1e-300"],
        ["projection", "--random-theta", "200", "--b1", "1e-300"],
        ["projection", "--random-theta", "200", "--c", "1e300"],
        ["projection", "--random-theta", "6000", "--r-grid", "0.5", "--b1", "1e-200"],
        # 500 dyadic scales, one pass over the pairs each, refused before the first
        ["projection", "--random-theta", "6000", "--r-grid", "0.5", "--b1", "1e-150"],
        ["margulis", "--random-theta", "200", "--b", "1e-300"],
        # transported points whose squared distances overflow float64
        *(["margulis", "--random-theta", "200", f"--ell={ell}"] for ell in MARGULIS_HUGE_ELL),
        # lists whose items each fit the ceiling but together do not, refused
        # before the first item: 20,000 expansion times, 30 heuristic bounds
        ["equidist", "--form", SQF2, "--T", LONG_T_LIST, "--N", "400"],
        ["rational", "--form", SQF2, "--R", LONG_R_LADDER],
        # a determinant past float64: normalize's scale would be 0
        ["count", "--form", "[1e300,-1e300,-1e300]", "--a", "-1", "--b", "1", "--T", "10"],
        # a missing file, named by the one reader of both arguments
        ["count", "--form", "missing.json", "--a", "0", "--b", "1", "--T", "3"],
        ["projection", "--theta", "missing.json"],
        # a Monte Carlo constant that is not positive: at delta = 1e-5 the
        # Richardson step of 10,000 samples reads -50.56
        ["count", "--form", SQF2, "--a=-1", "--b=1", "--T", "5", "--samples", "10000", "--delta", "1e-5"],
        ["cq", "--form", SQF2, "--samples", "10000", "--delta", "1e-5"],
        # a dichotomy grid step that is not positive, checked before the search
        # (the rational branch wins here and never builds the grid)
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "20", "--grid=0"],
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "20", "--grid=-1"],
        # a coverage floor outside [0, 1]
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "20", "--coverage-floor", "1.5"],
        ["dichotomy", "--form", SQF2, "--R", "2", "--T", "20", "--coverage-floor=-0.1"],
    ],
)
def test_usage_and_domain_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    if argv[:1] == ["equidist"] and argv[4] in HUGE_T:
        assert "too large to reduce in float64" in captured.err
    if any(arg in BAD_GRIDS for arg in argv):
        assert "grid_step must be positive" in captured.err
    elif any(arg.startswith("--grid") for arg in argv):
        assert "witness targets" in captured.err and "ceiling" in captured.err
    if "--delta" in argv:
        assert "raise delta or samples" in captured.err
    if any(arg.startswith("--coverage-floor") for arg in argv):
        assert "--coverage-floor must be in [0, 1]" in captured.err
    if LONG_T_LIST in argv:
        assert "Siegel samples" in captured.err and "ceiling" in captured.err
    if LONG_R_LADDER in argv:
        assert "ladder of 30 entry bounds" in captured.err and "ceiling" in captured.err
    if "[1e300,-1e300,-1e300]" in argv:
        assert "overflows float64" in captured.err and "1e+300" in captured.err
    if "missing.json" in argv:
        assert "'missing.json'" in captured.err and "No such file or directory" in captured.err


def test_an_oversized_count_disc_exits_before_any_array_is_built(monkeypatch, capsys):
    # 1.6e16 pairs at T = 1e8: the closed-form size refuses the disc before
    # the rows (two arrays of 10^8 floats) are built
    def no_rows(*args, **kwargs):
        raise AssertionError("the disc's rows were built")

    monkeypatch.setattr(opplab.enumeration, "_rounding_margin", no_rows)
    assert main(["count", "--form", SQF2, "--a=-1", "--b=1", "--T", "1e8"]) == 1
    assert "exceed the ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("ell", MARGULIS_HUGE_ELL)
def test_margulis_transport_past_float64_exits_1(ell, capsys):
    # the transported points' squared distances overflow: their NaN distances
    # used to compare false, so the run printed the --ell 20 result, with
    # numpy's overflow warnings on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["margulis", "--random-theta", "200", f"--ell={ell}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflow float64" in err


def test_an_oversized_r_count_exits_before_measuring_the_configuration(monkeypatch, capsys):
    def no_measure(*args, **kwargs):
        raise AssertionError("the configuration was measured past the ceiling")

    monkeypatch.setattr(opplab.projection.ProjectionParams, "measured", no_measure)
    assert main(["projection", "--random-theta", "20000", "--r-count", "1000000"]) == 1
    assert "r values of the survey" in capsys.readouterr().err


def test_an_array_numpy_cannot_allocate_exits_1(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.1 PiB for an array")

    monkeypatch.setattr(opplab.projection.FiniteConfig, "random_ball", no_memory)
    assert main(["projection", "--random-theta", "5", "--r-count", "3"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 7.1 PiB for an array\n"


def test_low_witness_coverage_exits_2(capsys):
    argv = [
        "dichotomy", "--form", SQF2, "--R", "1", "--T", "100",
        "--a-exp", "0", "--eps", "1e-9",
    ]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 2
    obj = json.loads(out)
    assert obj["branch"] == "small_values"
    assert obj["witness_summary"]["witnessed"] == 1
    # an explicit lower floor accepts the same outcome
    assert main(argv + ["--coverage-floor", "0.01"]) == 0


def test_count_degenerate_window_flag(capsys):
    argv = [
        "count", "--form", "[1,-1,-1]", "--a", "0.5", "--b", "0.5",
        "--T", "10", "--samples", "20000",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert row[header.index("ratio")] == ""
    assert row[header.index("degenerate_window")] == "1"


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc = main(GOLDEN_CASES["witness.csv"] + ["--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == (GOLDEN / "witness.csv").read_text()


def test_out_to_unwritable_path_exits_1(tmp_path, capsys):
    rc = main(GOLDEN_CASES["witness.csv"] + ["--out", str(tmp_path / "no" / "dir.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_save_config_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    rc = main(GOLDEN_CASES["count.csv"] + ["--save-config", str(cfg_path)])
    capsys.readouterr()
    assert rc == 0
    text = cfg_path.read_text()
    cfg = ExperimentConfig.from_json(text)
    assert cfg.command == "count"
    assert cfg.params["T"] == "10,20"  # raw argument values, faithfully
    assert cfg.params["samples"] == 20000
    assert cfg.params["seed"] == 1
    assert "func" not in cfg.params and "format" not in cfg.params
    assert cfg.canonical_json() == text


def test_form_accepts_file_path(tmp_path, capsys):
    form_path = tmp_path / "form.json"
    form_path.write_text(SQF2)
    argv = list(GOLDEN_CASES["rational.csv"])
    argv[argv.index(SQF2)] = str(form_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "rational.csv").read_text()


def test_theta_inline_and_file(tmp_path, capsys):
    points = [[0.01 * i, 0.0, 0.0, 0.0, 0.0] for i in range(1, 5)]
    inline = json.dumps(points)
    argv = [
        "margulis", "--theta", inline, "--alpha", "1.2", "--ell", "0.5",
        "--b", "0.1", "--M", "0", "--r-samples", "2", "--format", "json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(inline)
    argv[argv.index(inline)] = str(theta_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert set(obj) >= {"ratio_median", "rho_values", "floor_fraction_before"}


@pytest.mark.parametrize("command", ["projection", "margulis"])
def test_theta_object_takes_only_points(command, capsys):
    # a configuration has points and nothing else: an object with another
    # key, such as the weights that nothing read, exits 1 and names the key
    points = [[0.01 * i, 0.02, 0.0, 0.0, 0.0] for i in range(1, 6)]
    argv = [command, "--b", "0.1", "--format", "csv"]
    if command == "projection":
        argv += ["--r-count", "3"]
    else:
        argv += ["--r-samples", "2"]
    assert main([*argv, "--theta", json.dumps(points)]) == 0
    from_list = capsys.readouterr().out
    assert main([*argv, "--theta", json.dumps({"points": points})]) == 0
    assert capsys.readouterr().out == from_list
    weighted = {"points": points, "weights": [0.2] * 5}
    assert main([*argv, "--theta", json.dumps(weighted)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "'weights'" in captured.err


def test_heuristic_rows_are_canonical_and_keep_the_certified_sign(capsys):
    # the normalized m11 of this form is negative, so its rounded multiples
    # and lattice columns come out with a negative first entry
    assert main(["rational", "--form", "[1,1,-1.4142135623730951]", "--R", "8,16,32,64"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[3] for row in rows] == ["True", "False", "False", "False"]
    for row in rows:
        assert next(int(x) for x in row[4:] if int(x)) > 0, row
        assert (float(row[2]) < 0) == (float(rows[0][2]) < 0), row


def test_heuristic_picks_the_least_canonical_exact_form(capsys):
    assert main(["rational", "--form", "[1,1,-1]", "--R", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",False,1,1,-1,0,0,0")


def test_rational_json_format(capsys):
    assert main(["rational", "--form", SQF2, "--R", "1,2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["rows"]) == 2
    assert obj["rows"][0]["dist"] == obj["rows"][1]["dist"] == 0.2599210498948732


def test_projection_explicit_r_grid(capsys):
    argv = [
        "projection", "--random-theta", "30", "--ball-radius", "0.5", "--seed", "1",
        "--b", "0.05", "--r-grid", "0.0,0.5,1.0", "--format", "json",
    ]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [row["r"] for row in obj["rows"]] == [0.0, 0.5, 1.0]
    assert obj["params"]["b"] == 0.05
    assert obj["params"]["egbd"] >= 1.0


@pytest.mark.parametrize("name", ["equidist.csv", "projection.csv", "margulis.json"])
def test_thread_count_does_not_change_output(name, monkeypatch, capsys):
    argv = GOLDEN_CASES[name]
    monkeypatch.setenv("OPPLAB_THREADS", "1")
    assert main(argv) == 0
    single = capsys.readouterr().out
    monkeypatch.setenv("OPPLAB_THREADS", "3")
    assert main(argv) == 0
    assert capsys.readouterr().out == single
    assert single == (GOLDEN / name).read_text()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_env(**preset: str) -> dict:
    """The test's environment with opplab importable, no BLAS thread variable but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(opplab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(preset)
    return env


@pytest.mark.parametrize("blas_threads", ["1", "2"])
@pytest.mark.parametrize("name", ["equidist.csv", "projection.csv", "margulis.json"])
def test_blas_thread_count_does_not_change_output(name, blas_threads):
    # these goldens reach BLAS or LAPACK; a fresh process reads the setting when numpy loads
    proc = subprocess.run(
        [sys.executable, "-m", "opplab", *GOLDEN_CASES[name]],
        capture_output=True, env=_fresh_env(OPENBLAS_NUM_THREADS=blas_threads), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


#: numpy's dispatch targets past X86_V3 (AVX512); NPY_DISABLE_CPU_FEATURES
#: sends their loops back to the X86_V3 or baseline ones
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

#: the perfbench experiments that run approx; their references are byte-exact
DISPATCH_PERFBENCH = ("rational_certified", "rational_heuristic", "dichotomy")

_DISPATCH_PROBE = """
import contextlib, io, json, sys
from opplab.cli import main
out = {}
for name, argv in json.loads(sys.stdin.read()).items():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert main(argv) == 0, name
    out[name] = buf.getvalue()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def without_avx512_loops():
    """stdout of the golden and DISPATCH_PERFBENCH argv in one fresh process without numpy's AVX512 loops."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        pytest.skip("numpy 1.x names its dispatch targets otherwise")
    if not ("X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4")):
        pytest.skip("numpy does not dispatch X86_V4 loops on this host")
    disabled = " ".join(t for t in AVX512_TARGETS if t in __cpu_dispatch__ and __cpu_features__.get(t))
    from test_perfbench_contract import PERFBENCH, WORKLOADS

    experiments = {exp.name: exp for exps in WORKLOADS.values() for exp in exps}
    argvs = dict(GOLDEN_CASES, **{name: experiments[name].argv(0) for name in DISPATCH_PERFBENCH})
    proc = subprocess.run(
        [sys.executable, "-c", _DISPATCH_PROBE], input=json.dumps(argvs), capture_output=True,
        text=True, env=_fresh_env(NPY_DISABLE_CPU_FEATURES=disabled), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)
    expected = {name: (GOLDEN / name).read_text() for name in GOLDEN_CASES}
    for name in DISPATCH_PERFBENCH:
        expected[name] = (PERFBENCH / "reference" / experiments[name].reference_name(0)).read_text()
    return outputs, expected


_AVX512_DEPENDENT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP Direction 5(d): numpy's AVX512 power and exp round the points and energies differently",
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_AVX512_DEPENDENT) if name.startswith(("projection.", "margulis.")) else name
        for name in sorted(GOLDEN_CASES) + list(DISPATCH_PERFBENCH)
    ],
)
def test_output_does_not_depend_on_numpys_avx512_loops(name, without_avx512_loops):
    outputs, expected = without_avx512_loops
    assert outputs[name] == expected[name]


_PIN_PROBE = """
import json, os, sys
before = dict(os.environ)
import opplab
import numpy
numpy.ones((256, 256)) @ numpy.ones((256, 256))  # a BLAS call after the import
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")),
    "env": {k: os.environ.get(k) for k in sys.argv[1:]},
    "unchanged": dict(os.environ) == before,
}))
"""

needs_task_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counting OS threads needs /proc/self/task"
)


def _probe_pin(first: str = "", **preset: str) -> dict:
    """Import opplab in a fresh process (after ``first``); report its threads and BLAS variables."""
    proc = subprocess.run(
        [sys.executable, "-c", first + _PIN_PROBE, *BLAS_THREAD_VARS], capture_output=True, text=True,
        check=True, env=_fresh_env(**preset), timeout=120,
    )
    return json.loads(proc.stdout)


@needs_task_list
def test_import_pins_openblas_to_one_thread():
    # the variable is set only while numpy loads, so child processes do not inherit it
    got = _probe_pin()
    assert got["threads"] == 1
    assert got["unchanged"]


@needs_task_list
@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_import_keeps_a_preset_blas_thread_count(var):
    got = _probe_pin(**{var: "2"})
    assert got["unchanged"]
    assert got["env"] == {k: "2" if k == var else None for k in BLAS_THREAD_VARS}


@needs_task_list
def test_import_after_numpy_leaves_the_environment_alone():
    got = _probe_pin(first="import numpy")
    assert got["unchanged"]
    assert got["env"]["OPENBLAS_NUM_THREADS"] is None


_LAYER_PROBE = """
import contextlib, io, json, sys, types
from opplab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = main(sys.argv[1:])
    except SystemExit as exc:  # --help
        rc = exc.code
# a layer still waiting to load is a LazyLoader module, not a plain ModuleType
print(json.dumps({"rc": rc, "numpy.ma": "numpy.ma" in sys.modules, "executed": sorted(
    name for name, m in sys.modules.items() if name.startswith("opplab.") and type(m) is types.ModuleType
)}))
"""

_ALWAYS = ("cli", "errors", "util")


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["witness", "--help"], _ALWAYS),
        (["witness", "--form", SQF2, "--T", "20"], (*_ALWAYS, "enumeration", "forms")),
        (["equidist", "--form", SQF2, "--T", "5", "--N", "16"], (*_ALWAYS, "flows", "forms", "lattice")),
        (["projection", "--random-theta", "30", "--r-count", "3"], (*_ALWAYS, "projection")),
        (["margulis", "--random-theta", "30", "--ball-radius", "0.04", "--M", "2"], (*_ALWAYS, "projection")),
        (["count", "--form", SQF2, "--a=-1", "--b", "1", "--T", "20,40"], (*_ALWAYS, "enumeration", "forms")),
        # the certified ladder reduces no lattice
        (["dichotomy", "--form", SQF2, "--R", "4", "--T", "1e9", "--eps", "0.05"],
         (*_ALWAYS, "approx", "enumeration", "forms")),
        (["rational", "--form", SQF2, "--R", "1,2,4"], (*_ALWAYS, "approx", "enumeration", "forms")),
    ],
    ids=["help", "witness", "equidist", "projection", "margulis", "count", "dichotomy", "rational"],
)
def test_a_subcommand_executes_only_its_layers(argv, layers):
    proc = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBE, *argv], capture_output=True, text=True,
        check=True, env=_fresh_env(), timeout=120,
    )
    got = json.loads(proc.stdout)
    assert got["rc"] == 0
    assert got["executed"] == sorted(f"opplab.{layer}" for layer in layers)
    # np.median, np.percentile and plain np.unique import it on first use
    assert got["numpy.ma"] is False


def test_every_public_name_resolves_to_its_layer():
    listed = set(dir(opplab))
    for name in opplab.__all__:
        obj = getattr(opplab, name)
        assert obj.__module__.startswith("opplab."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in listed, name
    star: dict = {}
    exec("from opplab import *", star)
    assert set(star) - {"__builtins__"} == set(opplab.__all__)


def test_default_pool_follows_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("OPPLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert util.worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert util.worker_count() == 8


def test_invalid_thread_count_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("OPPLAB_THREADS", "zero")
    assert main(GOLDEN_CASES["equidist.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_thread_count_exits_1_without_a_pool(monkeypatch, capsys):
    # witness starts no workers; the value is still checked up front
    monkeypatch.setenv("OPPLAB_THREADS", "0")
    assert main(GOLDEN_CASES["witness.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "OPPLAB_THREADS" in captured.err
    assert captured.out == ""


def test_float_list_parsing():
    assert _float_list("1,2.5,3") == [1.0, 2.5, 3.0]
    assert _float_list("4,") == [4.0]
    with pytest.raises(ValueError):
        _float_list("")
    with pytest.raises(ValueError):
        _float_list("a,b")
    with pytest.raises(ValueError):
        _float_list("1,nan")

