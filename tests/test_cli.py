import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from etfspectra.cli import main


def run(*argv):
    assert main(list(argv)) == 0


def test_frames_construct_and_sample(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    run("frames", "construct", "--family", "dss", "--n", "31", "--out", str(frame))
    out = capsys.readouterr().out
    assert "tight=True" in out and "equiangular=True" in out

    eigs = tmp_path / "eigs.csv"
    run("spectra", "sample", "--frame", str(frame), "--k", "12",
        "--trials", "3", "--seed", "42", "--out", str(eigs))
    lines = eigs.read_text().splitlines()
    assert lines[1] == "trial,index,eigenvalue"
    assert len(lines) == 2 + 3 * 12


def test_frames_construct_paley(tmp_path):
    frame = tmp_path / "p.json"
    run("frames", "construct", "--family", "real_paley", "--q", "13", "--out", str(frame))
    assert frame.exists()


def test_manova_density_with_sidecar(tmp_path):
    out = tmp_path / "density.csv"
    run("manova", "density", "--beta", "0.8", "--gamma", "0.5",
        "--grid", "64", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "x,pdf,cdf"
    assert len(lines) == 2 + 64
    sidecar = json.loads((tmp_path / "density.csv.atoms.json").read_text())
    assert sidecar["atoms"] == []
    assert len(sidecar["support"]) == 2


def test_manova_density_with_mass_at_zero(tmp_path):
    # beta > 1: the grid starts on the atom at 0, where the density column
    # holds the continuous part only
    out = tmp_path / "density.csv"
    run("manova", "density", "--beta", "1.5", "--gamma", "0.25", "--out", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2048
    assert lines[2].split(",")[:2] == ["0.0", "0.0"]
    (atom,) = json.loads((tmp_path / "density.csv.atoms.json").read_text())["atoms"]
    assert atom == {"location": 0.0, "mass": pytest.approx(1 / 3, abs=1e-15)}


def test_functional_eval(tmp_path):
    frame = tmp_path / "frame.json"
    run("frames", "construct", "--family", "dss", "--n", "31", "--out", str(frame))
    out = tmp_path / "psi.csv"
    run("functional", "eval", "--kind", "ac", "--frame", str(frame),
        "--k", "12", "--trials", "5", "--seed", "1", "--out", str(out))
    assert len(out.read_text().splitlines()) == 2 + 5


def test_moments_commands(tmp_path, capsys):
    run("moments", "asymptotic", "--d", "4", "--format", "json")
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"]["p^2 x^1"] == "6"

    run("moments", "asymptotic", "--d", "3", "--format", "latex")
    assert "p^{3}" in capsys.readouterr().out

    run("moments", "ewb", "--gamma", "0.5", "--p", "0.5", "--d", "4", "--n", "7")
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta_term"] == pytest.approx(0.25 * 0.25 / 6)

    frame = tmp_path / "frame.json"
    run("frames", "construct", "--family", "dss", "--n", "7", "--out", str(frame))
    capsys.readouterr()
    run("moments", "exact", "--frame", str(frame), "--d", "2")
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"]["p^2"] == pytest.approx(4 / 3, abs=1e-10)


def test_coding_curve(tmp_path):
    out = tmp_path / "rd.csv"
    run("coding", "curve", "--direction", "sc", "--p", "0.5", "--model", "manova",
        "--sdr-db", "10:30:10", "--optimize-beta", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "y_db,beta_opt,rate,benchmark_rdf,benchmark_si"
    assert len(lines) == 2 + 3


def test_coding_curve_at_0_db_has_no_optimal_beta(tmp_path):
    # at an SDR of 1 the rate is 0 for every beta
    out = tmp_path / "rd.csv"
    run("coding", "curve", "--direction", "sc", "--p", "0.5", "--model", "manova",
        "--sdr-db", "0:20:10", "--optimize-beta", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert rows[0][:3] == ["0.0", "nan", "0.0"]
    assert all(0.5 < float(row[1]) < 1.0 for row in rows[1:])


def test_harness_test1(tmp_path, capsys):
    out = tmp_path / "test1.csv"
    run("harness", "test1", "--family", "manova_ensemble", "--beta", "0.8",
        "--gamma", "0.5", "--trials", "8", "--seed", "0",
        "--sizes", "32,64,128", "--out", str(out))
    assert "slope=" in capsys.readouterr().out
    assert out.read_text().startswith("# etfspectra-export")


def test_harness_test1_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = manova_ensemble\ntrials = 6\nsizes = 32,64,128\n")
    out = tmp_path / "test1.csv"
    run("harness", "test1", "--config", str(cfg), "--out", str(out))
    assert "test1 manova_ensemble" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["32", "64", "128"]
    assert all(r[6] == "6" for r in rows)  # trials column from config


def test_harness_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 6\n")
    out = tmp_path / "test1.csv"
    run("harness", "test1", "--config", str(cfg), "--trials", "4",
        "--sizes", "32,64,96", "--out", str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert all(r[6] == "4" for r in rows)


def test_harness_export_does_not_depend_on_where_it_goes(tmp_path):
    # the header hashes the settings, not --out or the --config path
    flags = ["--family", "dss", "--sizes", "19,23,31", "--trials", "3"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = dss\nsizes = 19,23,31\ntrials = 3\n")
    outs = [tmp_path / "a.csv", tmp_path / "second-name.csv", tmp_path / "from-config.csv"]
    run("harness", "test1", *flags, "--out", str(outs[0]))
    run("harness", "test1", *flags, "--out", str(outs[1]))
    run("harness", "test1", "--config", str(cfg), "--out", str(outs[2]))
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_harness_test2(tmp_path, capsys):
    out = tmp_path / "test2.csv"
    argv = ["harness", "test2", "--functional", "shannon", "--alpha", "1", "--trials", "8",
            "--seed", "0", "--sizes", "32,64,128", "--out", str(out)]
    run(*argv, "--family", "lowpass_dft")
    line = capsys.readouterr().out
    assert line.startswith("test2 lowpass_dft psi_shannon: slope=")
    assert all(f" {key}=" in line for key in ("se", "z", "chi2(1)", "b_frame", "b_baseline",
                                             "p_equal"))
    run(*argv, "--family", "manova_ensemble")
    line = capsys.readouterr().out
    assert "its own baseline, so the log ratio is 0 by construction" in line
    assert "p_equal=" not in line


def test_harness_test2_degenerate_rung_is_one_line(tmp_path):
    # strip at delta 10 never fires on lowpass_dft(32): every deviation is 0
    out = tmp_path / "test2.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["harness", "test2", "--family", "lowpass_dft", "--functional", "strip",
                  "--delta", "10", "--trials", "4", "--sizes", "32,64,128,256",
                  "--out", str(out)])
    assert exc.value.code == "harness test2: the frame mean at n=32 is 0.0; its log is undefined"


def test_harness_test1_zero_variance_is_one_line(tmp_path):
    # at m = n every ensemble value and the law sit on the atom at 1, so
    # every KS distance is 0 and the log of its variance is undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["harness", "test1", "--family", "manova_ensemble", "--gamma", "1.0",
                  "--sizes", "100,200,400", "--trials", "5", "--out", str(tmp_path / "t.csv")])
    assert exc.value.code == ("harness test1: the manova_ensemble variance at n=100 is 0.0; "
                              "its log is undefined")


@pytest.mark.parametrize("cmd,sizes,need", [("test1", "103,211", 3),
                                            ("test2", "32,64", 3),
                                            ("test1", "103,103,211", 3)])
def test_harness_short_ladder_rejected_before_running(tmp_path, cmd, sizes, need):
    out = tmp_path / "short.csv"
    with pytest.raises(SystemExit) as exc:
        main(["harness", cmd, "--sizes", sizes, "--trials", "4", "--out", str(out)])
    assert f"the fit needs at least {need}" in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize("via_config", (False, True))
def test_harness_unknown_family_exits_before_running(tmp_path, capsys, via_config):
    out = tmp_path / "test1.csv"
    argv = ["harness", "test1", "--trials", "4", "--sizes", "103,211,431", "--out", str(out)]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = dsss\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--family", "dsss"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value.code) == "harness test1: unknown frame family 'dsss'"
    assert capsys.readouterr().err == ""  # no per-size skip lines
    assert not out.exists()


def test_harness_skipped_sizes_keep_export_then_exit(tmp_path, capsys):
    out = tmp_path / "test1.csv"
    with pytest.raises(SystemExit) as exc:
        main(["harness", "test1", "--family", "dss", "--trials", "4",
              "--sizes", "103,211,100", "--out", str(out)])
    msg = str(exc.value.code)
    assert "only 2 ladder sizes ran (skipped 100)" in msg
    assert "skipped n=100" in capsys.readouterr().err
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["103", "211"]


def test_harness_short_ladder_exits_without_traceback(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", "harness", "test1",
                           "--family", "dss", "--sizes", "103,211",
                           "--out", str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert proc.stderr.strip().splitlines() == [
        "harness test1: the ladder has 2 distinct sizes; the fit needs at least 3"]


@pytest.mark.parametrize("params, reason", [
    ((), "dss needs n"),
    (("--n", "30"), "dss needs a prime n = 3 (mod 4), n >= 7; got 30"),
])
def test_frames_construct_bad_parameters_exit_without_traceback(tmp_path, params, reason):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "frame.json"
    proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", "frames", "construct",
                           "--family", "dss", *params, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [f"frames construct: {reason}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (("exact", "--frame", "{frame}", "--d", "9"), "d must be in 1..8; got 9"),
    (("exact", "--frame", "{missing}", "--d", "4"),
     "[Errno 2] No such file or directory: '{missing}'"),
    (("exact", "--frame", "{malformed}", "--d", "4"),
     "{malformed}: field must be 'real' or 'complex'; got 'quaternion'"),
    (("exact", "--frame", "{not_json}", "--d", "4"),
     "{not_json}: not a JSON document (Expecting value: line 1 column 1 (char 0))"),
    (("ewb", "--gamma", "0.5", "--p", "0.5", "--d", "5", "--n", "7"),
     "the bound is proven for d in 2..4; got 5"),
    (("asymptotic", "--d", "13"), "d must be in 1..12; got 13"),
    (("ewb", "--gamma", "0.5", "--p", "0.5", "--d", "4", "--n", "1"),
     "the bound needs n >= 2 vectors; got n=1"),
    (("ewb", "--gamma", "0.5", "--p", "0.5", "--d", "4", "--n", "0"),
     "the bound needs n >= 2 vectors; got n=0"),
], ids=["exact-order", "exact-missing-frame", "exact-malformed-frame", "exact-not-json",
        "ewb-order", "asymptotic-order", "ewb-n1", "ewb-n0"])
def test_moments_bad_arguments_exit_without_traceback(tmp_path, argv, reason):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    frame, missing = tmp_path / "frame.json", tmp_path / "missing.json"
    malformed = tmp_path / "malformed.json"
    run("frames", "construct", "--family", "dss", "--n", "7", "--out", str(frame))
    malformed.write_text(json.dumps({**json.loads(frame.read_text()), "field": "quaternion"}))
    not_json = tmp_path / "frame.txt"
    not_json.write_text("frame: dss7\n")
    paths = {"frame": frame, "missing": missing, "malformed": malformed, "not_json": not_json}
    argv = [a.format(**paths) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", "moments", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [f"moments {argv[0]}: {reason.format(**paths)}"]


@pytest.mark.parametrize("argv, reason", [
    (("spectra", "sample", "--frame", "{missing}", "--k", "3"),
     "[Errno 2] No such file or directory: '{missing}'"),
    (("functional", "eval", "--kind", "ac", "--frame", "{missing}", "--k", "3"),
     "[Errno 2] No such file or directory: '{missing}'"),
    (("manova", "density", "--beta", "0", "--gamma", "0.5"), "beta must be positive; got 0.0"),
    (("coding", "curve", "--direction", "sc", "--p", "1.5", "--sdr-db", "10", "--beta", "0.5"),
     "source coding needs p < beta < 1; got beta=0.5"),
    (("coding", "curve", "--direction", "cc", "--p", "0.5", "--sdr-db", "10"),
     "give --beta or --optimize-beta"),
    (("coding", "curve", "--direction", "sc", "--p", "0.9999", "--model", "manova",
      "--sdr-db", "10:20:10", "--optimize-beta"),
     "no source beta to search at p=0.9999: the bracket is [1.0, 0.9999], "
     "and the search needs 0 <= p <= 1 and a width above 1e-06"),
    *[(("coding", "curve", "--direction", "cc", "--p", "0.5", "--beta", "2",
        "--sdr-db", spec),
       f"--sdr-db takes a value or lo:hi:step with lo <= hi and step > 0; got '{spec}'")
      for spec in ("0:10:0", "10:0:2", "0:60")],
], ids=["spectra-missing-frame", "functional-missing-frame", "manova-beta",
        "coding-beta-range", "coding-no-beta", "coding-no-bracket", "coding-range-step-0",
        "coding-range-descending", "coding-range-two-parts"])
def test_commands_bad_arguments_exit_without_traceback(tmp_path, argv, reason):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    missing, out = tmp_path / "missing.json", tmp_path / "out.csv"
    argv = [a.format(missing=missing) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        f"{argv[0]} {argv[1]}: {reason.format(missing=missing)}"]
    assert not out.exists()


def _no_ladder(*args, **kwargs):
    raise AssertionError("a rung ran before the paths were checked")


@pytest.mark.parametrize("cmd", ("test1", "test2"))
@pytest.mark.parametrize("bad", ("out_dir", "out_is_dir", "config"))
def test_harness_bad_paths_exit_before_any_rung(tmp_path, monkeypatch, cmd, bad):
    from etfspectra import harness

    monkeypatch.setattr(harness, "run_ladder", _no_ladder)
    out, cfg = tmp_path / "t.csv", tmp_path / "missing.cfg"
    argv = ["harness", cmd, "--sizes", "32,64,128,256", "--trials", "4"]
    if bad == "out_dir":
        out = tmp_path / "missing" / "t.csv"
        reason = f"--out directory '{out.parent}' does not exist"
    elif bad == "out_is_dir":
        out = tmp_path
        reason = f"--out '{tmp_path}' is a directory"
    else:
        argv += ["--config", str(cfg)]
        reason = f"[Errno 2] No such file or directory: '{cfg}'"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == f"harness {cmd}: {reason}"


@pytest.mark.parametrize("cmd", ("test1", "test2"))
def test_harness_unknown_config_key_exits_before_any_rung(tmp_path, monkeypatch, cmd):
    from etfspectra import harness

    monkeypatch.setattr(harness, "run_ladder", _no_ladder)
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfg.write_text("family = dss\ntrails = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["harness", cmd, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == (f"harness {cmd}: {cfg}: unknown config key 'trails'; "
                              "the keys are family, beta, gamma, trials, seed, profile, sizes")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ("test1", "test2"))
@pytest.mark.parametrize("key, value, reason", [
    ("profile", "dsk", "argument --profile: invalid choice: 'dsk'"),
    ("sizes", "", "invalid literal for int() with base 10: ''"),
], ids=("profile-dsk", "empty-sizes"))
def test_harness_config_value_is_checked_as_its_flag(tmp_path, monkeypatch, capsys, cmd,
                                                     key, value, reason):
    from etfspectra import harness

    monkeypatch.setattr(harness, "run_ladder", _no_ladder)
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfg.write_text(f"{key} = {value}\n")
    errors = []
    for extra in ([f"--{key}", value], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["harness", cmd, *extra, "--out", str(out)])
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert reason in f"{errors[0][0]} {errors[0][1]}"
    assert not out.exists()


def test_config_keys_are_the_documented_harness_options():
    # README's list, the recognized keys and the options of both commands
    # agree, so a renamed flag cannot leave a dead key
    from etfspectra import cli

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Harness configuration", 1)[1].split("\n#", 1)[0]
    listed = re.search(r"recognized keys are (.+?);", section, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == cli.CONFIG_KEYS
    values = {"family": "dss", "beta": "0.7", "gamma": "0.4", "trials": "5", "seed": "3",
              "profile": "full", "sizes": "19,23,31"}
    assert set(values) == set(cli.CONFIG_KEYS)
    flags = [f"--{key}={value}" for key, value in values.items()]
    for cmd in ("test1", "test2"):
        args = cli.build_parser().parse_args(["harness", cmd, *flags, "--out", "t.csv"])
        assert {key: str(getattr(args, key)) for key in values} == values


@pytest.mark.parametrize("cmd", ("test1", "test2"))
def test_harness_one_trial_exits_before_any_rung(tmp_path, monkeypatch, cmd):
    from etfspectra import harness

    monkeypatch.setattr(harness, "resolve_dims", _no_ladder)  # each rung's first step
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["harness", cmd, "--sizes", "32,64,128,256", "--trials", "1", "--out", str(out)])
    assert exc.value.code == f"harness {cmd}: variance statistics need trials >= 2"
    assert not out.exists()


def test_frames_construct_missing_out_dir_exits_without_traceback(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run([sys.executable, "-m", "etfspectra.cli", "frames", "construct",
                           "--family", "dss", "--n", "7", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [
        f"frames construct: [Errno 2] No such file or directory: '{out}'"]
