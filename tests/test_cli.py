"""Exit codes, config merging, emitted files, and input checks."""

import json
import math
import signal

import numpy as np
import pytest

from besqlab import besq, cli, nonmarkov, quadrature
from besqlab.nonmarkov import ScenarioParams


def run_cli(*argv):
    return cli.main(list(argv))


def test_density_prints_known_value(capsys):
    assert run_cli("density", "--delta", "2", "--t", "0.5", "--x", "0", "--y", "1") == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_density_missing_flag_is_config_error(capsys):
    assert run_cli("density", "--delta", "2", "--t", "0.5", "--x", "0") == 2
    assert "--y" in capsys.readouterr().err


def test_unit_coupling_ratio_equals_density(capsys):
    assert run_cli(
        "ratio", "--c", "1", "--delta1", "1", "--delta2", "1",
        "--z1", "1", "--z2", "4", "--z3", "1", "--limit-eps",
    ) == 0
    ratio = float(capsys.readouterr().out.strip())
    assert run_cli("density", "--delta", "2", "--t", "1", "--x", "4", "--y", "1") == 0
    density = float(capsys.readouterr().out.strip())
    assert ratio == pytest.approx(density, rel=1e-12)


def test_missing_seed_on_stochastic_command(capsys):
    assert run_cli("simulate", "--delta", "2", "--times", "0.5,1") == 2
    assert "--seed" in capsys.readouterr().err


def test_simulate_roundtrip_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--delta", "2.5", "--times", "0.5,1,2", "--seed", "11")
    assert run_cli(*args, "--output", str(out1)) == 0
    assert run_cli(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert parsed.shape == (3, 2)
    assert np.all(parsed[:, 1] >= 0.0)

    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["seed"] == 11
    assert "wall_time_s" in meta and "version" in meta
    meta2 = json.loads((tmp_path / "b.csv.meta.json").read_text())
    for m in (meta, meta2):
        m.pop("wall_time_s")
        m.pop("outputs")
    assert meta == meta2


def test_bessel_kind_is_sqrt_of_besq(tmp_path):
    kw = ("--delta", "3", "--times", "0.5,1", "--seed", "7")
    sq, root = tmp_path / "sq.csv", tmp_path / "root.csv"
    assert run_cli("simulate", *kw, "--output", str(sq)) == 0
    assert run_cli("simulate", *kw, "--kind", "bessel", "--output", str(root)) == 0
    a = [float(line.split(",")[1]) for line in sq.read_text().strip().splitlines()[1:]]
    b = [float(line.split(",")[1]) for line in root.read_text().strip().splitlines()[1:]]
    assert np.allclose(np.sqrt(a), b)


def test_eigen_emits_ordered_pair(tmp_path):
    out = tmp_path / "eig.csv"
    assert run_cli(
        "eigen", "--c", "0.5", "--delta", "2", "--times", "0.5,1,2",
        "--seed", "3", "--output", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,lambda1,lambda2"
    for line in lines[1:]:
        _, l1, l2 = (float(v) for v in line.split(","))
        assert l1 >= l2


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--delta", "1"),
        ("eigen", "--c", "1", "--delta", "1", "--source", "sde"),
        ("eigen", "--c", "1", "--delta", "1", "--source", "matrix"),
    ],
)
def test_infinite_time_is_config_error(capsys, command):
    assert run_cli(*command, "--times", "1,inf", "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "times must be finite" in captured.err


def test_one_path_outputs_frozen(capsys):
    # the library's one-path streams at seed 0 (tests/test_dyson.py) reach the CSV
    grid = "0.25,0.5,1,2"
    assert run_cli(
        "simulate", "--delta", "2.5", "--x0", "4", "--times", grid, "--seed", "0"
    ) == 0
    assert run_cli(
        "simulate", "--kind", "bessel", "--delta", "1.5", "--x0", "2", "--times", grid,
        "--seed", "0",
    ) == 0
    assert run_cli("eigen", "--c", "1", "--delta", "1", "--source", "sde", "--times", grid,
                   "--seed", "0") == 0
    assert run_cli("eigen", "--c", "0.5", "--delta", "2", "--times", grid, "--seed", "0") == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line[0].isdigit()]
    assert [row.split(",")[0] for row in rows] == ["0.25", "0.5", "1.0", "2.0"] * 4
    assert rows[3] == "2.0,4.641811333497872"
    assert rows[7] == "2.0,0.35220062899395377"
    assert rows[11] == "2.0,2.8686889216557283,-1.7371076727056256"
    assert rows[15] == "2.0,1.2316027268216898,-2.523663528511901"


def test_eigen_sde_requires_unit_coupling(capsys):
    assert run_cli(
        "eigen", "--c", "0.5", "--delta", "2", "--times", "1", "--source", "sde", "--seed", "1"
    ) == 2


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": 2.0, "t": 0.5, "x": 0.0, "y": 1.0}))
    assert run_cli("density", "--config", str(cfg)) == 0
    base = float(capsys.readouterr().out.strip())
    assert base == pytest.approx(math.exp(-1.0), rel=1e-9)
    # flag wins over the file value
    assert run_cli("density", "--config", str(cfg), "--t", "1.0") == 0
    overridden = float(capsys.readouterr().out.strip())
    assert overridden == pytest.approx(0.5 * math.exp(-0.5), rel=1e-9)


def test_config_file_unreadable(capsys):
    assert run_cli("density", "--config", "/nonexistent.json") == 2


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("density", {"delta": 2, "t": 1, "x": 1, "y": 1, "dleta": 5}, "dleta"),
        ("cmx-test", {"c_values": "1", "n_target": 3, "refine": 5}, "refine"),
    ],
)
def test_config_file_unknown_key_is_config_error(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", str(path), "--seed", "1", "--output", str(out)) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv.meta.json").exists()


def exit_code(*argv):
    # argparse refuses a bad flag, or a bad file value, through SystemExit
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def flag(key, value):
    return ["--" + key.replace("_", "-"), str(value)]


_CMX_FLAGS = (
    "cmx-test", "--c-values", "1", "--n-target", "100", "--seed", "6",
    "--w1-ref-center", "0.15", "--w1-ref-halfwidth", "0.05",
    "--w1-alt-center", "1.0", "--w1-alt-halfwidth", "0.1",
    "--w2-center", "0.35", "--w2-halfwidth", "0.07",
)
_ZC_FLAGS = (
    "markov-test", "--c-values", "1", "--n-target", "100", "--seed", "5",
    "--w1-ref-center", "0.6", "--w1-ref-halfwidth", "0.06",
    "--w1-alt-center", "1.4", "--w1-alt-halfwidth", "0.14",
    "--w2-center", "2.0", "--w2-halfwidth", "0.2",
)
_SIMULATE = ("simulate", "--delta", "2", "--times", "0.5,1", "--seed", "1")

# each flag with a parser default, a file value and a flag value that differ
DEFAULTED = [
    (_SIMULATE, "kind", "bessel", "besq"),
    (_SIMULATE, "x0", 4.0, 1.0),
    (("eigen", "--c", "1", "--delta", "1", "--times", "0.5,1", "--seed", "1"),
     "source", "sde", "matrix"),
    (_ZC_FLAGS, "alpha", 0.01, 0.05),
    (_ZC_FLAGS, "eps_ref", 0.3, 0.7),
    (_ZC_FLAGS, "eps_alt", 0.3, 0.7),
    (_ZC_FLAGS, "delta1", 2.0, 3.0),
    (_ZC_FLAGS, "delta2", 2.0, 3.0),
    (_CMX_FLAGS, "alpha", 0.01, 0.05),
    (_CMX_FLAGS, "eps_ref", 0.3, 0.7),
    (_CMX_FLAGS, "eps_alt", 0.3, 0.7),
]


@pytest.mark.parametrize(
    "argv,key,file_value,flag_value", DEFAULTED, ids=[f"{a[0]}-{k}" for a, k, _, _ in DEFAULTED]
)
def test_config_value_beats_default_and_flag_beats_config(
    tmp_path, argv, key, file_value, flag_value
):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: file_value}))

    def output(*extra):
        out = tmp_path / "out"
        assert run_cli(*argv, *extra, "--output", str(out)) == 0
        return out.read_bytes()

    from_file = output("--config", str(cfg))
    assert from_file == output(*flag(key, file_value))
    assert from_file != output(*flag(key, flag_value))
    assert output("--config", str(cfg), *flag(key, flag_value)) == output(*flag(key, flag_value))


def test_config_switch_takes_true_or_false(tmp_path, capsys):
    argv = (
        "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1", "--eps", "0.5",
        "--z1", "1", "--z2", "4", "--z3", "4",
    )
    cfg = tmp_path / "run.json"
    for value, extra, printed in [
        (True, (), "0.1109372946"),
        (False, ("--limit-eps",), "0.1109372946"),
        (False, (), "0.1145384067"),
    ]:
        cfg.write_text(json.dumps({"limit_eps": value}))
        assert run_cli(*argv, "--config", str(cfg), *extra) == 0
        assert capsys.readouterr().out == printed + "\n"
    cfg.write_text(json.dumps({"limit_eps": "yes"}))
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "true or false" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,key",
    [
        (("simulate", "--delta", "2", "--times", "1", "--seed", "1"), "kind"),
        (("eigen", "--c", "1", "--delta", "1", "--times", "1", "--seed", "1"), "source"),
        (("laplace", "--lam", "10"), "problem"),
    ],
    ids=["simulate", "eigen", "laplace"],
)
def test_config_value_outside_choices_is_refused(tmp_path, capsys, argv, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    out = tmp_path / "out.csv"
    assert exit_code(*argv, "--config", str(cfg), "--output", str(out)) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv.meta.json").exists()


def test_format_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    argv = ("density", "--delta", "2", "--t", "1", "--x", "1", "--y", "1")
    assert exit_code(*argv, "--format", "csv") == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "csv"}))
    assert run_cli(*argv, "--config", str(cfg)) == 2
    assert "'format'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [_SIMULATE, ("eigen", "--c", "1", "--delta", "1", "--times", "1"), _ZC_FLAGS, _CMX_FLAGS],
    ids=["simulate", "eigen", "markov-test", "cmx-test"],
)
def test_negative_seed_is_refused(tmp_path, capsys, argv):
    if "--seed" in argv:
        at = argv.index("--seed")
        argv = argv[:at] + argv[at + 2:]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for source in (("--seed", "-1"), ("--config", str(cfg))):
        assert exit_code(*argv, *source) == 2
        assert "a seed must be nonnegative" in capsys.readouterr().err


def test_config_file_sets_arm_sizes(tmp_path):
    # n_ref / n_alt are flags too, so a config file may set them
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"n_ref": 150, "n_alt": 120}))
    out = tmp_path / "probe.json.out"
    assert run_cli(
        "markov-test", "--config", str(path), "--c-values", "1", "--n-target", "200",
        "--seed", "5", "--eps-ref", "0.3", "--eps-alt", "0.7",
        "--w1-ref-center", "0.6", "--w1-ref-halfwidth", "0.06",
        "--w1-alt-center", "1.4", "--w1-alt-halfwidth", "0.14",
        "--w2-center", "2.0", "--w2-halfwidth", "0.2",
        "--output", str(out),
    ) == 0
    cell = json.loads(out.read_text())["cells"][0]
    assert (cell["n_ref"], cell["n_alt"]) == (150, 120)



def test_rescaled_coupling_matches_reduced_scenario(capsys):
    # c=2 runs as the law of Z/2: coupling 1/2, swapped dimensions, scaled
    # levels, and a 1/2 density Jacobian
    assert run_cli(
        "ratio", "--c", "2", "--delta1", "1.5", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1",
    ) == 0
    got = float(capsys.readouterr().out.strip())
    s = ScenarioParams(c=0.5, delta1=1.0, delta2=1.5, eps=0.5, z1=0.5, z2=2.0, z3=0.5)
    want = 0.5 * nonmarkov.conditional_ratio(s)
    assert got == pytest.approx(want, rel=1e-9)


def test_rescaled_coupling_runs_in_the_library(tmp_path, capsys):
    # the CLI builds the c=2 scenario as given; the reduction is the library's
    out = tmp_path / "ratio.csv"
    assert run_cli(
        "ratio", "--c", "2", "--delta1", "1.5", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1", "--output", str(out),
    ) == 0
    s = ScenarioParams(c=2.0, delta1=1.5, delta2=1.0, eps=0.5, z1=1.0, z2=4.0, z3=1.0)
    detail = nonmarkov.conditional_ratio_detail(s)
    assert capsys.readouterr().out == f"{detail.ratio:.10g}\n"
    row = out.read_text().splitlines()[1].split(",")
    assert (float(row[8]), float(row[9])) == (detail.ratio, detail.rel_error_estimate)


def test_exact_coupling_checks_eps(capsys):
    # the c = 1 kernel ignores eps, but the scenario is still checked whole
    assert run_cli(
        "ratio", "--c", "1", "--delta1", "1", "--delta2", "1",
        "--eps", "1.5", "--z1", "1", "--z2", "4", "--z3", "1",
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps must lie in (0, 1)" in captured.err


@pytest.mark.parametrize("c", ["0", "-1", "nan", "inf", "1"])
def test_lemma3_coupling_outside_open_unit_interval_is_config_error(capsys, monkeypatch, c):
    # refused with the other argument checks, before any integral runs
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran before the coupling check")

    monkeypatch.setattr(quadrature, "integrate_rows", no_integral)
    assert run_cli(
        "lemma3", "--c", c, "--delta1", "1", "--delta2", "1",
        "--r1", "1", "--r2", "4", "--z2", "10",
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c must lie in (0, 1)" in captured.err


_PROBE_FLAGS = (
    "--n-target", "100", "--seed", "5",
    "--w1-ref-center", "0.6", "--w1-ref-halfwidth", "0.06",
    "--w1-alt-center", "1.4", "--w1-alt-halfwidth", "0.14",
    "--w2-halfwidth", "0.2",
)


# one short command line per list-valued key, and the one value it gets
LIST_KEYS = [
    (("simulate", "--delta", "2", "--seed", "1"), "times", 1.0),
    (("eigen", "--c", "0.5", "--delta", "1", "--seed", "1"), "times", 1.0),
    (("laplace", "--problem", "quadratic"), "lam", 10.0),
    (("lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1", "--r1", "1", "--r2", "4"),
     "z2", 10.0),
    (("markov-test", "--w2-center", "2.0", *_PROBE_FLAGS), "c_values", 1.0),
]


@pytest.mark.parametrize("argv,key,value", LIST_KEYS, ids=[f"{a[0]}-{k}" for a, k, _ in LIST_KEYS])
def test_config_list_key_takes_a_number_or_a_list(tmp_path, capsys, argv, key, value):
    # the flag's text, a bare number and a one-number list give the same
    # output; a JSON config with anything else is a config error, not a
    # TypeError traceback
    cfg = tmp_path / "run.json"
    outputs = []
    for i, form in enumerate((None, value, [value])):
        out = tmp_path / f"{i}.out"
        if form is None:
            args = (*argv, "--" + key.replace("_", "-"), repr(value))
        else:
            cfg.write_text(json.dumps({key: form}))
            args = (*argv, "--config", str(cfg))
        assert run_cli(*args, "--output", str(out)) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] == outputs[2]
    for bad in (True, {"v": value}, [value, "2"], [[value]]):
        cfg.write_text(json.dumps({key: bad}))
        assert run_cli(*argv, "--config", str(cfg)) == 2
        assert "not a number or a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("density", "--delta", "inf", "--t", "1", "--x", "1", "--y", "1"), "delta"),
        (("density", "--delta", "2", "--t", "inf", "--x", "1", "--y", "1"), "time step"),
        (("simulate", "--delta", "inf", "--times", "1,2", "--seed", "0"), "delta"),
        (("eigen", "--c", "1", "--delta", "inf", "--times", "1,2", "--seed", "0"), "delta"),
        (("eigen", "--c", "1", "--delta", "inf", "--times", "1,2", "--seed", "0",
          "--source", "sde"), "delta"),
        (("ratio", "--c", "0.5", "--delta1", "inf", "--delta2", "1", "--eps", "0.5",
          "--z1", "1", "--z2", "4", "--z3", "1"), "dimensions"),
        (("lemma3", "--c", "0.5", "--delta1", "inf", "--delta2", "1",
          "--r1", "1", "--r2", "4", "--z2", "10"), "dimensions"),
        (("markov-test", "--c-values", "1", "--delta1", "inf", "--w2-center", "2",
          *_PROBE_FLAGS), "delta"),
        (("markov-test", "--c-values", "inf", "--w2-center", "2", *_PROBE_FLAGS),
         "c must be finite"),
        (("markov-test", "--c-values", "1", "--w2-center", "nan", *_PROBE_FLAGS), "center"),
    ],
    ids=[
        "density-delta", "density-t", "simulate-delta", "eigen-matrix-delta", "eigen-sde-delta",
        "ratio-delta1", "lemma3-delta1", "markov-delta1", "markov-c", "markov-center",
    ],
)
def test_non_finite_dimension_time_coupling_or_center_is_config_error(capsys, argv, message):
    assert run_cli_within(10, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_ratio_unreliable_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    assert run_cli(
        "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", "4000", "--z2", "4", "--z3", "1", "--output", str(out),
    ) == 3
    assert "numeric" in capsys.readouterr().err
    # the sidecar is evidence of the failure; no data file was written
    assert not out.exists()
    meta = json.loads((tmp_path / "ratio.csv.meta.json").read_text())
    assert meta["command"] == "ratio"
    assert meta["status"] == 3
    assert "1e-300" in meta["error"]
    assert meta["params"]["z1"] == 4000.0
    assert meta["outputs"] == []
    assert meta["wall_time_s"] >= 0.0


def run_cli_within(seconds, *argv):
    # a hang fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return run_cli(*argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "x, t",
    [("2e9", "1"), ("2e3", "1e-6")],  # Bessel argument sqrt(x y)/t = 2e9, past scipy's 2^30
)
def test_density_past_bessel_argument_cap(capsys, x, t):
    assert run_cli_within(10, "density", "--delta", "3", "--t", t, "--x", x, "--y", x) == 0
    got = float(capsys.readouterr().out)
    # at delta = 3 the Bessel factor's closed form is the leading Hankel term
    want = besq.far_field_density(besq.BesqParams(3.0), float(t), float(x), float(x))
    assert got == pytest.approx(want, rel=1e-9)


def test_density_large_order_past_bessel_argument_cap(capsys):
    # nu = 1499 is too large for the Hankel expansion at sqrt(x y)/t = 2e9;
    # the uniform expansion takes it.  Frozen from a 50-digit mpmath evaluation
    assert run_cli_within(
        10, "density", "--delta", "3000", "--t", "1", "--x", "2e9", "--y", "2e9"
    ) == 0
    assert float(capsys.readouterr().out) == pytest.approx(4.4578054138626692e-6, rel=1e-9)


@pytest.mark.parametrize("z1, z3", [("inf", "4"), ("1", "inf")])
def test_ratio_infinite_level_is_config_error(capsys, z1, z3):
    assert run_cli_within(
        10, "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", z1, "--z2", "4", "--z3", z3,
    ) == 2
    assert "levels must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("c", ["0", "1"])
def test_exact_coupling_infinite_level_is_config_error(capsys, c):
    # the exact couplings c = 0 and c = 1 evaluate one transition kernel,
    # which would print nan (c = 1) or 0 (c = 0) for an infinite level
    assert run_cli(
        "ratio", "--c", c, "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "inf",
    ) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "levels must be positive and finite" in captured.err


@pytest.mark.parametrize("x, y", [("1", "inf"), ("inf", "1")])
def test_density_infinite_point_is_config_error(capsys, x, y):
    assert run_cli("density", "--delta", "2", "--t", "1", "--x", x, "--y", y) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x and y must be finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_overflowing_level_is_numeric_failure(capsys):
    # the x3 integral over (0, 2e300) overflows; the quadrature stops it as
    # non-finite without an overflow warning, and the command exits 3
    assert run_cli_within(
        10, "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1e300",
    ) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_ratio_infinite_coupling_is_config_error(capsys):
    assert run_cli(
        "ratio", "--c", "inf", "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "4",
    ) == 2
    assert "c must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["1e300", "inf"])
def test_simulate_huge_start_is_config_error(capsys, x0):
    assert run_cli("simulate", "--delta", "1", "--times", "1,2", "--x0", x0, "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x0 must be finite" in captured.err


def test_eigen_infinite_coupling_is_config_error(capsys):
    assert run_cli("eigen", "--c", "inf", "--delta", "1", "--times", "1,2", "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c must be finite" in captured.err


def test_ratio_csv_schema(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    assert run_cli(
        "ratio", "--c", "1", "--delta1", "1", "--delta2", "1",
        "--z1", "1", "--z2", "4", "--z3", "1", "--limit-eps", "--output", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,delta1,delta2,eps,z1,z2,z3,use_eps,ratio,rel_error"
    row = lines[1].split(",")
    assert len(row) == 10
    assert float(row[8]) > 0.0


def test_laplace_sweep_csv(tmp_path):
    out = tmp_path / "lap.csv"
    assert run_cli("laplace", "--problem", "quadratic", "--lam", "20,50", "--output", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,numeric,asymptotic,ratio"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


def test_lemma3_sweep_csv(tmp_path):
    out = tmp_path / "l3.csv"
    assert run_cli(
        "lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--r1", "1", "--r2", "4", "--z2", "10,20", "--output", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,delta1,delta2,r1,r2,z2,residual"
    res = [float(line.split(",")[6]) for line in lines[1:]]
    assert abs(res[1]) < abs(res[0])


def test_markov_probe_json_and_exit_codes(tmp_path):
    out = tmp_path / "probe.json"
    assert run_cli(
        "markov-test", "--c-values", "1", "--n-target", "200", "--seed", "5",
        "--eps-ref", "0.3", "--eps-alt", "0.7",
        "--w1-ref-center", "0.6", "--w1-ref-halfwidth", "0.06",
        "--w1-alt-center", "1.4", "--w1-alt-halfwidth", "0.14",
        "--w2-center", "2.0", "--w2-halfwidth", "0.2",
        "--output", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"] == [{"c": 1.0, "verdict": "consistent"}]
    assert payload["cells"][0]["n_ref"] == 200
    meta = json.loads((tmp_path / "probe.json.meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["status"] == 0 and "error" not in meta


def test_markov_probe_inconclusive_exit(tmp_path):
    # an unreachable window exhausts the feasibility floor: exit 4, and the
    # cell report still lands in the output file
    out = tmp_path / "probe.json"
    assert run_cli(
        "markov-test", "--c-values", "0.5", "--n-target", "100", "--seed", "5",
        "--w1-ref-center", "-5.0", "--w1-ref-halfwidth", "0.1",
        "--w1-alt-center", "1.0", "--w1-alt-halfwidth", "0.1",
        "--w2-center", "2.0", "--w2-halfwidth", "0.2",
        "--output", str(out),
    ) == 4
    payload = json.loads(out.read_text())
    assert payload["summary"] == [{"c": 0.5, "verdict": "inconclusive"}]


def test_cmx_probe_small_run(tmp_path):
    out = tmp_path / "cmx.json"
    assert run_cli(
        "cmx-test", "--c-values", "1", "--n-target", "200", "--seed", "6",
        "--w1-ref-center", "0.15", "--w1-ref-halfwidth", "0.05",
        "--w1-alt-center", "1.0", "--w1-alt-halfwidth", "0.1",
        "--w2-center", "0.35", "--w2-halfwidth", "0.07",
        "--output", str(out),
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["cells"][0]["process"] == "cmx"
    # sampler counts reach the CLI report
    assert payload["cells"][0]["proposed_ref"] >= 200
    assert 0.0 < payload["cells"][0]["accept_alt"] <= 1.0
    assert payload["summary"][0]["verdict"] == "consistent"
