"""Exit codes, config merging, emitted files, and input checks."""

import argparse
import hashlib
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from besqlab import besq, cli, nonmarkov, quadrature, stattest
from besqlab.nonmarkov import ScenarioParams
from oracles import far_field_density


def run_cli(*argv):
    return cli.main(list(argv))


def test_density_prints_known_value(capsys):
    assert run_cli("density", "--delta", "2", "--t", "0.5", "--x", "0", "--y", "1") == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.exp(-1.0), rel=1e-9)


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("density", "--delta", "2", "--t", "0.5", "--x", "0"), "--y"),
        (("ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
          "--z1", "1", "--z2", "4", "--z3", "1"), "--eps"),
    ],
    ids=["density", "ratio"],
)
def test_missing_flag_is_config_error(capsys, argv, missing):
    # ratio needs --eps unless --limit-eps names the eps -> 0 kernel
    assert run_cli(*argv) == 2
    assert missing in capsys.readouterr().err


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
    assert rows[3] == "2.0,11.777406389114502"
    assert rows[7] == "2.0,2.871053425873291"
    assert rows[11] == "2.0,2.960168361987325,-1.8285871130372227"
    assert rows[15] == "2.0,1.3053924832335098,-2.597453284923721"


def test_csv_cells_are_repr_text(capsys):
    values = [-0.0, 5e-324, 1e16, 1e-5, float("nan"), 0.1]
    cli._write_rows(None, ["a", "b", "c"], np.array(values).reshape(2, 3))
    cli._write_rows(None, ["a", "b"], np.empty((0, 2)))
    assert capsys.readouterr().out == "a,b,c\n-0.0,5e-324,1e+16\n1e-05,nan,0.1\na,b\n"


def test_path_commands_never_load_scipy_special():
    # scipy.special loads on first use; every path command must run without it
    grid = ("--times", "0.5,1,2", "--seed", "1")
    code = "\n".join([
        "import sys",
        "from besqlab import cli",
        "for argv in (",
        "    ['simulate', '--kind', 'besq', '--delta', '2.5', *GRID],",
        "    ['simulate', '--kind', 'bessel', '--delta', '1.5', *GRID],",
        "    ['eigen', '--source', 'matrix', '--c', '0.5', '--delta', '2', *GRID],",
        "    ['eigen', '--source', 'sde', '--c', '1', '--delta', '1', *GRID],",
        "):",
        "    assert cli.main(argv) == 0",
        "print('scipy.special' in sys.modules)",
        "cli.main(['density', '--delta', '2', '--t', '0.5', '--x', '0', '--y', '1'])",
        "print('scipy.special' in sys.modules)",
    ]).replace("GRID", repr(grid))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
    )
    # the control: density needs scipy.special, and loads it
    assert done.stdout.splitlines()[-3:] == ["False", "0.3678794412", "True"]


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
    ],
    ids=["simulate", "eigen"],
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


def test_removed_laplace_command_is_refused(capsys):
    # this call once divided by an asymptotic that underflowed to 0; the
    # command is gone, and argparse refuses it like any unknown command
    assert exit_code("laplace", "--problem", "affine", "--lam", "250.5") == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'laplace'" in err
    assert "Traceback" not in err


def test_docstring_lists_exactly_the_subcommands():
    intro, table = cli.__doc__.split("\n\n")[1:3]
    listed = [line.split()[0] for line in table.splitlines()]
    sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    assert listed == list(sub.choices)
    numbers = "zero one two three four five six seven eight nine ten".split()
    assert intro.split()[0].lower() == numbers[len(listed)]


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"y": 1.0}))
    argv = ("density", "--delta", "2", "--t", "0.5", "--x", "0")
    assert run_cli(*argv, "--y", "1") == 0
    assert run_cli(*argv, "--config", str(cfg)) == 0
    assert capsys.readouterr().out == "0.3678794412\n" * 2
    assert calls == []


def test_nothing_leaks_between_main_calls(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    ratio = (
        "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1", "--eps", "0.5",
        "--z1", "1", "--z2", "4", "--z3", "4",
    )
    cfg.write_text(json.dumps({"limit_eps": True}))
    assert run_cli(*ratio, "--config", str(cfg)) == 0
    assert run_cli(*ratio) == 0
    assert capsys.readouterr().out == "0.1109372946\n0.1145384067\n"

    assert exit_code(*_SIMULATE, "--kind", "cubic") == 2
    capsys.readouterr()
    assert run_cli(*_SIMULATE) == 0
    # the same call in a process whose parser has never refused anything
    code = "import sys; from besqlab import cli; sys.exit(cli.main(sys.argv[1:]))"
    fresh = subprocess.run(
        [sys.executable, "-c", code, *_SIMULATE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
    )
    assert capsys.readouterr().out == fresh.stdout

    out = tmp_path / "probe.json"
    cfg.write_text(json.dumps({"alpha": 0.05}))
    for extra, alpha in ((("--config", str(cfg)), 0.05), ((), 0.001)):
        assert run_cli(*_ZC_FLAGS, *extra, "--output", str(out)) == 0
        meta = json.loads((tmp_path / "probe.json.meta.json").read_text())
        assert meta["params"]["alpha"] == alpha


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
    want = 0.5 * nonmarkov.conditional_ratio_detail(s).ratio
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
    # the c = 1 kernel ignores eps, and so does the eps -> 0 kernel of
    # --limit-eps, but a given eps is still checked with the whole scenario
    for argv in (
        "ratio --c 1 --delta1 1 --delta2 1 --eps 1.5 --z1 1 --z2 4 --z3 1",
        "ratio --c 0.5 --delta1 1 --delta2 1 --eps 1.5 --z1 1 --z2 4 --z3 4 --limit-eps",
    ):
        assert run_cli(*argv.split()) == 2
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
    # the flag's own text, refused as argparse converts it
    assert exit_code(*argv, "--" + key.replace("_", "-"), f"{value!r},x") == 2
    assert "not a number or a list of numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,key", [entry[:2] for entry in LIST_KEYS], ids=[f"{a[0]}-{k}" for a, k, _ in LIST_KEYS]
)
def test_empty_list_is_refused(tmp_path, capsys, argv, key):
    # an empty simulate grid or lemma3 sweep printed a bare header and exited 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: []}))
    out = tmp_path / "out.csv"
    name = "--" + key.replace("_", "-")
    for source in ((name, ","), (name, ""), ("--config", str(cfg))):
        assert exit_code(*argv, *source, "--output", str(out)) == 2
        assert "need at least one number" in capsys.readouterr().err
        assert not out.exists()


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
        (("lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
          "--r1", "inf", "--r2", "2", "--z2", "10"), "ratios r must be positive and finite"),
        (("lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
          "--r1", "0.5", "--r2", "inf", "--z2", "10"), "ratios r must be positive and finite"),
        (("lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
          "--r1", "0.5", "--r2", "2", "--z2", "inf"), "z2 must be positive and finite"),
        (("lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
          "--r1", "0.5", "--r2", "2", "--z2", "1e308"), "levels r * z2 must be finite"),
        (("markov-test", "--c-values", "1", "--delta1", "inf", "--w2-center", "2",
          *_PROBE_FLAGS), "delta"),
        (("markov-test", "--c-values", "inf", "--w2-center", "2", *_PROBE_FLAGS),
         "c must be finite"),
        (("markov-test", "--c-values", "1", "--w2-center", "nan", *_PROBE_FLAGS), "center"),
    ],
    ids=[
        "density-delta", "density-t", "simulate-delta", "eigen-matrix-delta", "eigen-sde-delta",
        "ratio-delta1", "lemma3-delta1", "lemma3-r1", "lemma3-r2", "lemma3-z2", "lemma3-r-z2",
        "markov-delta1", "markov-c", "markov-center",
    ],
)
def test_non_finite_dimension_time_coupling_or_center_is_config_error(capsys, argv, message):
    assert run_cli_within(10, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_deep_tail_ratio_exits_zero_with_an_honest_error(tmp_path, capsys):
    # the pair density is far below the smallest double, but pair and triple
    # are logs, so the ratio between them is an ordinary number
    out = tmp_path / "ratio.csv"
    assert run_cli(
        "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--eps", "0.5", "--z1", "4000", "--z2", "4", "--z3", "1", "--output", str(out),
    ) == 0
    assert capsys.readouterr().out == "0.1123851552\n"
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[8]) == pytest.approx(0.1123851552, rel=1e-9)
    assert 0.0 < float(row[9]) < 1e-6
    meta = json.loads((tmp_path / "ratio.csv.meta.json").read_text())
    assert meta["status"] == 0
    assert meta["outputs"] == [str(out)]
    assert "error" not in meta


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("density", "--delta", "2", "--t", "1", "--x", "1", "--y", "1"), id="density"),
        pytest.param(
            (
                "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
                "--eps", "0.5", "--z1", "4000", "--z2", "4", "--z3", "1",
            ),
            id="ratio-deep-tail",
        ),
    ],
)
def test_output_in_a_missing_directory_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # refused before the handler computes: neither kernel may run
    for module, name in ((besq, "transition_density"), (nonmarkov, "conditional_ratio_detail")):
        monkeypatch.setattr(module, name, lambda *a: pytest.fail(f"{name} ran"))
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(*argv, "--output", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: cannot write {out}: no directory {out.parent}\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_sidecar_is_config_error(tmp_path, capsys):
    # a write that fails past the up-front check exits 2 the same way
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.meta.json").mkdir()
    argv = ("density", "--delta", "2", "--t", "1", "--x", "1", "--y", "1", "--output", str(out))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: cannot write {out}.meta.json: Is a directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("density", "--delta", "2", "--t", "1", "--x", "1", "--y", "1"), id="density"),
        pytest.param(("simulate", "--delta", "1", "--times", "1,2", "--seed", "0"), id="simulate"),
        pytest.param(
            (
                "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "1",
                "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1",
            ),
            id="ratio",
        ),
    ],
)
def test_empty_output_path_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # an empty path names no file: refused before any work, with no sidecar
    # written into the working directory
    monkeypatch.chdir(tmp_path)
    for module, name in (
        (besq, "transition_density"),
        (besq, "sample_path"),
        (nonmarkov, "conditional_ratio_detail"),
    ):
        monkeypatch.setattr(module, name, lambda *a: pytest.fail(f"{name} ran"))
    assert run_cli(*argv, "--output", "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert list(tmp_path.iterdir()) == []


def test_sidecar_wall_time_ignores_a_wall_clock_step(tmp_path, monkeypatch):
    # the wall clock can step backwards while a command runs; the sidecar's
    # wall time comes from a monotonic clock and stays nonnegative
    real_handler, needs_seed = cli._COMMANDS["density"]
    real_time = time.time

    def handler(*args):
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        return real_handler(*args)

    monkeypatch.setitem(cli._COMMANDS, "density", (handler, needs_seed))
    out = tmp_path / "d.csv"
    argv = ("density", "--delta", "2", "--t", "1", "--x", "1", "--y", "1", "--output", str(out))
    assert run_cli(*argv) == 0
    meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
    assert 0.0 <= meta["wall_time_s"] < 60.0


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
    want = far_field_density(3.0, float(t), float(x), float(x))
    assert got == pytest.approx(want, rel=1e-9)


def test_density_large_order_past_bessel_argument_cap(capsys):
    # past the cap, at sqrt(x y)/t = 2e9, the uniform expansion takes
    # nu = 1499.  Frozen from a 50-digit mpmath evaluation
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
@pytest.mark.parametrize("delta1, z3", [("1", "1e300")], ids=["z3-level"])
def test_ratio_overflowing_level_is_numeric_failure(capsys, delta1, z3):
    # at z3 = 1e300 the x3 integral over (0, 2e300) overflows; the quadrature
    # stops it as non-finite without an overflow warning, and the ratio exits 3
    assert run_cli_within(
        10, "ratio", "--c", "0.5", "--delta1", delta1, "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", z3,
    ) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_at_a_huge_order_rounds_to_zero(capsys, monkeypatch):
    # at delta1 = 1e6 the Bessel factor of order 499999 meets arguments near
    # the bottom of the double range, which take the series without an
    # overflow warning.  Pair and triple stay finite logs, about 6.06e6
    # apart, so the printed 0 is the correctly rounded ratio
    logs = []
    kernel_logs = nonmarkov._kernel_logs

    def recorded(*args, **kwargs):
        logs.append(kernel_logs(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(nonmarkov, "_kernel_logs", recorded)
    assert run_cli_within(
        10, "ratio", "--c", "0.5", "--delta1", "1e6", "--delta2", "1",
        "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1",
    ) == 0
    assert capsys.readouterr().out == "0\n"
    (rows,) = logs
    pair, triple = rows.values
    assert math.isfinite(pair) and math.isfinite(triple)
    assert triple - pair == pytest.approx(-6.06e6, rel=1e-3)
    assert triple - pair < -746.0


@pytest.mark.parametrize(
    "argv, axis",
    [
        (("--c", "0.5", "--delta1", "1", "--delta2", "0.9"), "x1"),
        (("--c", "0.5", "--delta1", "1", "--delta2", "0.5"), "x1"),
        (("--c", "0.5", "--delta1", "1", "--delta2", "1e-300"), "x1"),
        (("--c", "2", "--delta1", "0.5", "--delta2", "2"), "x1"),
        (("--c", "2", "--delta1", "0.5", "--delta2", "2", "--limit-eps"), "x3"),
    ],
    ids=["delta2-0.9", "delta2-0.5", "delta2-1e-300", "swapped", "swapped-limit-eps"],
)
def test_ratio_below_the_endpoint_floor_fails_at_once(tmp_path, capsys, argv, axis):
    # below delta2 ~ 0.93 (after the c > 1 swap) the singular endpoint z/c
    # floors every inner row's relative error above its 1e-7 tolerance; the
    # first failed batch of rows ends the ratio, instead of the outer x2 axis
    # refining on top of rows that can never converge
    out = tmp_path / "ratio.csv"
    assert run_cli_within(
        10, "ratio", *argv, "--eps", "0.5", "--z1", "1", "--z2", "4", "--z3", "1",
        "--output", str(out),
    ) == 3
    assert f"{axis} quadrature did not converge" in capsys.readouterr().err
    meta = json.loads((tmp_path / "ratio.csv.meta.json").read_text())
    assert meta["status"] == 3
    assert meta["error"].startswith(f"{axis} quadrature did not converge")
    assert not out.exists()


def test_rows_below_the_endpoint_floor_stop_at_the_first_convergent_level(monkeypatch, capsys):
    # the floored x1 rows once refined to max_levels: 37 rows of 38,234
    # points each, about 1.6 s, for a batch that could never converge
    batches = []
    integrate_rows = quadrature.integrate_rows

    def counted(*args, **kwargs):
        batches.append(integrate_rows(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(quadrature, "integrate_rows", counted)
    assert run_cli(
        "ratio", "--c", "0.5", "--delta1", "1", "--delta2", "0.5", "--eps", "0.5",
        "--z1", "1", "--z2", "4", "--z3", "1",
    ) == 3
    assert "x1 quadrature did not converge" in capsys.readouterr().err
    failed = batches[-1]
    assert not failed.converged.all()
    # the first integrand call, levels 0 to 2, is the most a row can cost
    first_call = 1 + 2 * sum(quadrature._nodes(level)[0].size for level in range(3))
    assert failed.evaluations.max() <= first_call


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_at_an_order_past_the_uniform_expansion_range(capsys):
    # the uniform expansion's order term overflows to its limit, and the
    # density to 0, without a warning on stderr
    assert run_cli("density", "--delta", "1e306", "--t", "1", "--x", "1", "--y", "1") == 0
    assert capsys.readouterr() == ("0\n", "")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate",), "sampler's range"),
        (("simulate", "--kind", "bessel"), "sampler's range"),
        (("simulate", "--kind", "bessel", "--x0", "1e200"), "xi0**2 / (2 step)"),
        (("eigen", "--c", "1", "--source", "matrix"), "sampler's range"),
        (("eigen", "--c", "1", "--source", "sde"), "sampler's range"),
    ],
    ids=["simulate", "simulate-bessel", "simulate-bessel-start", "eigen-matrix", "eigen-sde"],
)
def test_path_past_the_sampler_range_is_config_error(capsys, argv, message):
    # the start is in range, but a dimension of 1e16 grows the path past
    # numpy's Poisson cap on this grid: once an uncaught ValueError (exit 1).
    # A dimension or a step near the float limit overflows the one step's
    # Gamma draw instead, which raises nothing: once inf with exit 0.  A
    # Bessel start of 1e200 is out of range on every grid; squaring it first
    # once warned of an overflow, and the message spoke of the squared start
    grid = ",".join(map(repr, np.round(0.001 * np.arange(1, 2001), 6).tolist()))
    for delta, times in [("1e16", grid), ("1e308", "2"), ("1", "1e308")]:
        assert run_cli(*argv, "--delta", delta, "--times", times, "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_eigen_infinite_coupling_is_config_error(capsys):
    assert run_cli("eigen", "--c", "inf", "--delta", "1", "--times", "1,2", "--seed", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c must be finite" in captured.err


def test_eigen_huge_coupling_stays_finite(capsys):
    # 2 c overflows past DOUBLE_MAX/2, and the rows once read inf,-inf; the
    # gap grows like sqrt(c), so 1e308 gives 1e4 times the rows of 1e300
    rows = []
    for c in ("1e300", "1e308"):
        assert run_cli("eigen", "--c", c, "--delta", "1", "--times", "1,2", "--seed", "0") == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        rows.append(np.array([[float(v) for v in line.split(",")[1:]] for line in lines]))
    assert np.isfinite(rows[1]).all()
    np.testing.assert_allclose(rows[1], 1e4 * rows[0], rtol=1e-15)


# Exact stdout of the paper's two objects on the CLI, recorded once: the
# eigen rows are test_dyson's frozen one-path streams, and the eps -> 0 ratio
# is the same whatever --eps is given
GUARD_STDOUT = [
    (
        "eigen --source matrix --c 0.5 --delta 2",
        "t,lambda1,lambda2\n"
        "0.25,0.8597424813494945,0.26464773218668597\n"
        "0.5,0.3450438278493023,-0.6246562112511854\n"
        "1.0,0.9676697420992768,-3.199387275453481\n"
        "2.0,1.3053924832335098,-2.597453284923721\n",
    ),
    (
        "eigen --source sde --c 1 --delta 1",
        "t,lambda1,lambda2\n"
        "0.25,1.0947508807168906,-0.07390721671216527\n"
        "0.5,0.4899840734360346,-0.1026698849104693\n"
        "1.0,2.0458116765472636,-0.9225418178446603\n"
        "2.0,2.960168361987325,-1.8285871130372227\n",
    ),
]
_LIMIT_RATIO = "ratio --c 0.5 --delta1 1 --delta2 1 --z1 1 --z2 4 --z3 4 --limit-eps"


@pytest.mark.parametrize("argv,want", GUARD_STDOUT, ids=["matrix", "sde"])
def test_eigen_stdout_is_byte_stable(capsys, argv, want):
    assert run_cli(*argv.split(), "--times", "0.25,0.5,1,2", "--seed", "0") == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("eps", ["0.5", "0.9", None])
def test_limit_ratio_stdout_is_byte_stable(tmp_path, capsys, eps):
    given = () if eps is None else ("--eps", eps)
    assert run_cli(*_LIMIT_RATIO.split(), *given) == 0
    assert capsys.readouterr().out == "0.1109372946\n"
    out = tmp_path / "ratio.csv"
    assert run_cli(*_LIMIT_RATIO.split(), *given, "--output", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    # eps records what was given, and limit_eps says the eps -> 0 kernel ran
    assert row[3] == ("nan" if eps is None else repr(float(eps)))
    assert row[7] == "1.0"
    assert row[8] == "0.1109372946281901"


def test_ratio_csv_schema(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    assert run_cli(
        "ratio", "--c", "1", "--delta1", "1", "--delta2", "1",
        "--z1", "1", "--z2", "4", "--z3", "1", "--limit-eps", "--output", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,delta1,delta2,eps,z1,z2,z3,limit_eps,ratio,rel_error"
    row = lines[1].split(",")
    assert len(row) == 10
    assert float(row[8]) > 0.0


def test_lemma3_runs_where_the_pair_integral_underflows(capsys):
    # at r2 = 4 and z2 = 1e4 the pair integral q is near e^-5006, far below
    # the smallest double; its log is all the double ratio needs
    assert run_cli(
        "lemma3", "--c", "0.5", "--delta1", "1", "--delta2", "1",
        "--r1", "0.25", "--r2", "4", "--z2", "10000",
    ) == 0
    residual = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[6])
    assert residual == pytest.approx(-6.69e-6, rel=1e-3)


def test_lemma3_row_at_its_rounding_floor_reports_a_finite_error(capsys):
    # at delta = 3 and z2 = 1e6 three limit rows have logs of -5e5 to -1e6,
    # whose rounding floors of 1.1e-10 to 2.2e-10 exceed the 1e-10 tolerance
    assert run_cli(
        "lemma3", "--c", "0.5", "--delta1", "3", "--delta2", "3",
        "--r1", "0.25", "--r2", "4", "--z2", "1e6",
    ) == 3
    err = capsys.readouterr().err
    assert "limit quadrature did not converge: 3 of 4 rows" in err
    worst = float(err.rsplit("worst relative error ", 1)[1])
    assert worst == pytest.approx(1e6 * 2.0**-52, rel=0.01)


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


@pytest.mark.parametrize("alpha", ["0", "1", "2", "nan"])
def test_markov_probe_bad_alpha_is_refused_before_sampling(tmp_path, capsys, monkeypatch, alpha):
    def no_arm(*args, **kwargs):
        raise AssertionError("an arm sampled before the alpha check")

    monkeypatch.setattr(stattest, "_run_arm", no_arm)
    out = tmp_path / "probe.json"
    assert run_cli(*_ZC_FLAGS, "--alpha", alpha, "--output", str(out)) == 2
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "probe.json.meta.json").exists()


def test_markov_probe_repeated_coupling_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    # the summary holds one verdict per coupling, so a repeat would lose verdicts
    def no_arm(*args, **kwargs):
        raise AssertionError("an arm sampled before the coupling check")

    monkeypatch.setattr(stattest, "_run_arm", no_arm)
    out = tmp_path / "probe.json"
    for argv in (_ZC_FLAGS, _CMX_FLAGS):
        at = argv.index("--c-values") + 1
        repeated = (*argv[:at], "0.5,0.5,0.5", *argv[at + 1:])
        assert run_cli(*repeated, "--output", str(out)) == 2
        assert "couplings must be distinct" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "probe.json.meta.json").exists()


@pytest.mark.parametrize("argv", [_ZC_FLAGS, _CMX_FLAGS], ids=["markov-test", "cmx-test"])
def test_probe_huge_coupling_is_inconclusive_without_warning(capsys, argv):
    # c x overflows to inf, which no window contains; it once warned of the
    # overflow, which the suite's error::RuntimeWarning filter turns into a failure
    at = argv.index("--c-values") + 1
    huge = (*argv[:at], "1e308", *argv[at + 1:])
    assert run_cli(*huge, "--n-target", "10") == 4
    assert json.loads(capsys.readouterr().out)["summary"] == [
        {"c": 1e308, "verdict": "inconclusive"}
    ]


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


def test_markov_probe_window_holding_all_the_mass(capsys):
    # the ref window holds all the mass of Z(eps): p1 is 1, and a p1 summed
    # to 1 plus rounding once made the survivor count's binomial raise
    assert run_cli(
        "markov-test", "--c-values", "0.5,2", "--n-target", "50", "--seed", "1",
        "--w1-ref-center", "50", "--w1-ref-halfwidth", "50",
        "--w1-alt-center", "2", "--w1-alt-halfwidth", "0.2",
        "--w2-center", "4", "--w2-halfwidth", "0.4",
    ) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [cell["p1_ref"] for cell in cells] == [1.0, 1.0]


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
    # and so does the first stage: its exact probability, and the survivors
    # that every accepted sample came through
    for arm in ("ref", "alt"):
        cell = payload["cells"][0]
        assert 0.0 < cell[f"p1_{arm}"] < 1.0
        assert cell[f"survived_{arm}"] >= cell[f"accept_{arm}"] * cell[f"proposed_{arm}"]
    assert payload["summary"][0]["verdict"] == "consistent"


def test_cmx_probe_report_is_frozen(tmp_path):
    # every byte of a seeded two-cell report: the exact first stage of the
    # cmx sampler (survivor counts, then R = 2M - X and the uniform share)
    # and the bridge-maximum steps after it keep their stream
    out = tmp_path / "cmx.json"
    assert run_cli(*_CMX_FLAGS[:2], "1,0.5", *_CMX_FLAGS[3:], "--output", str(out)) == 0
    payload = out.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == (
        "8a4e7d3e58c662fab1d519729e5916720522651d8e93bfdbb69f86ba84986390"
    )
    cells = json.loads(payload)["cells"]
    assert [(cell["c"], cell["statistic"]) for cell in cells] == [
        (1.0, 0.14), (0.5, 0.13)
    ]


def test_zc_probe_report_is_frozen(tmp_path):
    # every byte of a seeded two-cell report away from c = 0: the Gamma sum
    # and free Beta share at c = 1, the sum and share first stage and the
    # quadrature p1 at c = 0.5, and the exact transitions after eps keep
    # their stream
    out = tmp_path / "zc.json"
    assert run_cli(*_ZC_FLAGS[:2], "1,0.5", *_ZC_FLAGS[3:], "--output", str(out)) == 0
    payload = out.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == (
        "53fd6b7c8291aebd11a6b15ce4cc89fd63dae1ca9b5a171ce86987f4f0d63ae5"
    )
    cells = json.loads(payload)["cells"]
    assert [(cell["c"], cell["statistic"]) for cell in cells] == [
        (1.0, 0.13), (0.5, 0.09999999999999998)
    ]


def test_zc_zero_coupling_report_is_frozen(tmp_path):
    # every byte of a seeded c = 0 report: Y alone, from its Gamma law
    # restricted to w1 and then by its own exact transitions
    out = tmp_path / "zc.json"
    assert run_cli(*_ZC_FLAGS[:2], "0", *_ZC_FLAGS[3:], "--output", str(out)) == 0
    payload = out.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == (
        "a384e810ce3867b05bc2fff6f534b6447e0635581b7bb98a0f23c72bb06794e6"
    )
    (cell,) = json.loads(payload)["cells"]
    assert (cell["c"], cell["statistic"], cell["survived_ref"]) == (0.0, 0.10999999999999999, 2407)


@pytest.mark.parametrize("n_ref", ["10", "4000000"], ids=["in-join", "in-ref-arm"])
def test_ctrl_c_ends_a_probe_run_at_once(n_ref):
    # the alt arm, 4M samples of the witness deep tail (about 6 us each on a
    # 2-core VM), runs for some 25 s on its worker thread, and so does a 4M
    # ref arm at the near window; an interrupt must not wait for either,
    # whether the ref arm has finished (the caller waits in the join) or is
    # still running
    code = (
        "import sys; from besqlab import cli; print('imported', flush=True); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    argv = (
        "markov-test", "--c-values", "0.5", "--seed", "3", "--n-ref", n_ref, "--n-alt", "4000000",
        "--n-target", "1", "--w1-ref-center", "1.0", "--w1-ref-halfwidth", "0.1",
        "--w1-alt-center", "8.0", "--w1-alt-halfwidth", "0.8",
        "--w2-center", "4.0", "--w2-halfwidth", "0.4",
    )
    # a background job of a non-interactive shell ignores SIGINT, and a child
    # that inherits the ignore gets no KeyboardInterrupt handler from Python
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        assert proc.stdout.readline() == "imported\n"
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=30)
        assert time.monotonic() - sent < 5.0
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGINT
    assert "KeyboardInterrupt" in err
