"""Command-line interface: subcommands, artifacts, and exit codes.

Covers:
  * help and usage errors for every subcommand (exit 0 / 1).
  * ``factorize``: summary output, binary dump roundtrip, missing-file
    (exit 1), bad-sample or malformed-row (exit 2) and
    insufficient-excitation (exit 2) paths.
  * ``control``: per-step CSV layout, agreement with the library call,
    and rejection of unknown controllers.
  * ``benchmark``: records.csv / normalized.csv emission, the seed
    override, byte-identical reruns, and the unclean runs per controller
    and status on stderr.
  * ``tune``: name.param report lines and the nothing-to-tune error.

All invocations run ``main`` in-process; nothing shells out.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import demo_model, seeded

from ddpc import qp as qp_module
from ddpc import (
    HorizonSpec,
    collect_open_loop,
    factorize,
    load_config,
    load_lq_blocks,
    partition,
    random_steps,
    read_trajectory_csv,
    run_single,
    write_trajectory_csv,
)
from ddpc.cli import main


CONFIG_TEXT = """
[plant]
kind = lti
sigma_e = 0.1
a = 0.7326 -0.0861 ; 0.1722 0.9909
b = 0.0609 ; 0.0064
c = 0 1.4142
d = 1
k = -0.3645 ; 0.9973

[excitation]
kind = steps
hold = 5
amplitude = 1.5

[horizons]
l_p = 4
l_f = 5

[cost]
q = 1
r = 0.05

[constraints]
u_min = -2
u_max = 2

[reference]
period = 30
amplitude = 1

[run]
n_steps = 10
n_d = 150
seeds = 3
warmup = excitation

[controllers]
list = spc causal_gamma

[sweep]
baseline = causal_gamma

[tune]
controllers = reg_gamma
grid_min = 0.01
grid_max = 100
grid_points = 2
seeds = 1

[output]
dir = {out}
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(CONFIG_TEXT.format(out=tmp_path / "out"))
    return path


@pytest.fixture()
def trajectory_csv(tmp_path):
    model = demo_model(sigma_e=0.2)
    rng = seeded(150)
    traj = collect_open_loop(model, random_steps(rng, 1.5, 5, 150), rng=rng)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    return path


# ---------------------------------------------------------------------------
# usage and help
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["factorize", "--help"],
    ["control", "--help"],
    ["benchmark", "--help"],
    ["tune", "--help"],
])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["factorize", "x.csv", "--lp", "4", "--lf", "5",
                 "--frobnicate"]) == 1


def test_missing_required_option_is_usage_error(capsys):
    assert main(["factorize", "x.csv", "--lp", "4"]) == 1


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def test_factorize_summary_and_dump(trajectory_csv, tmp_path, capsys):
    dump = tmp_path / "blocks.bin"
    code = main(["factorize", str(trajectory_csv), "--lp", "4", "--lf", "5",
                 "--dump", str(dump)])
    out = capsys.readouterr().out
    assert code == 0
    assert "m=1 p=1 L_p=4 L_f=5" in out
    assert "residual block norm" in out
    loaded = load_lq_blocks(dump)
    traj = read_trajectory_csv(trajectory_csv)
    direct = factorize(partition(traj, HorizonSpec(4, 5)))
    for name in ("L11", "L21", "L22", "L31", "L32", "L33"):
        np.testing.assert_array_equal(getattr(loaded, name),
                                      getattr(direct, name))


def test_factorize_missing_file(tmp_path, capsys):
    assert main(["factorize", str(tmp_path / "nope.csv"),
                 "--lp", "4", "--lf", "5"]) == 1
    assert "not found" in capsys.readouterr().err


def test_factorize_unexcited_data_exits_two(tmp_path, capsys):
    lines = ["t,u1,y1"] + [f"{t},1.0,{0.5 * t}" for t in range(1, 61)]
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["factorize", str(path), "--lp", "4", "--lf", "5"]) == 2
    assert "exciting" in capsys.readouterr().err


def test_factorize_record_too_short_exits_two(tmp_path, capsys):
    lines = ["t,u1,y1"] + [f"{t},{t % 3},{t % 5}" for t in range(1, 22)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["factorize", str(path), "--lp", "6", "--lf", "6"]) == 2


@pytest.mark.parametrize("row,message", [
    ("1,nan,0.5", "3: non-finite sample 'nan' in column 'u1'"),
    ("1,abc,0.5", "3: bad row: could not convert string to float: 'abc'"),
])
def test_factorize_bad_csv_data_exits_two(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,u1,y1\n0,1.0,2.0\n{row}\n")
    assert main(["factorize", str(path), "--lp", "4", "--lf", "5"]) == 2
    assert capsys.readouterr().err == f"ddpc: {path}:{message}\n"


# ---------------------------------------------------------------------------
# control
# ---------------------------------------------------------------------------


def test_control_writes_per_step_csv(mini_config, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["control", "--config", str(mini_config),
                 "--controller", "causal_gamma", "--seed", "1",
                 "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,u1,y1,r1,J_cum,qp_iters,qp_status"
    assert len(lines) == 1 + 10
    rollout, _ = run_single(load_config(mini_config), "causal_gamma", seed=1)
    assert f"J={rollout.J:.10g}" in printed
    assert float(lines[-1].split(",")[4]) == pytest.approx(rollout.J,
                                                           abs=1e-9)


def test_control_default_output_under_config_dir(mini_config, tmp_path,
                                                 capsys):
    code = main(["control", "--config", str(mini_config),
                 "--controller", "spc", "--seed", "0"])
    assert code == 0
    expected = tmp_path / "out" / "control_spc_seed0.csv"
    assert expected.exists()


def test_control_unknown_controller(mini_config, capsys):
    assert main(["control", "--config", str(mini_config),
                 "--controller", "wizardry"]) == 1
    assert "unknown controller" in capsys.readouterr().err


def test_control_missing_config(tmp_path, capsys):
    assert main(["control", "--config", str(tmp_path / "gone.cfg"),
                 "--controller", "spc"]) == 1


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def test_benchmark_emits_records_and_normalized(mini_config, tmp_path,
                                                capsys):
    out = tmp_path / "bench_out"
    code = main(["benchmark", "--config", str(mini_config),
                 "--out", str(out), "--seeds", "2"])
    assert code == 0
    records = (out / "records.csv").read_text().strip().splitlines()
    assert records[0].startswith("controller,N_d,sigma_e,eps,seed,J")
    assert len(records) == 1 + 2 * 2  # controllers x overridden seeds
    normalized = (out / "normalized.csv").read_text().strip().splitlines()
    assert normalized[0] == "controller,N_d,sigma_e,eps,J_mean,ratio"
    assert len(normalized) == 3
    printed = capsys.readouterr().out
    assert "records.csv" in printed and "normalized.csv" in printed


def test_benchmark_reruns_byte_identical(mini_config, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["benchmark", "--config", str(mini_config),
                 "--out", str(out1), "--seeds", "2"]) == 0
    assert main(["benchmark", "--config", str(mini_config),
                 "--out", str(out2), "--seeds", "2"]) == 0
    assert (out1 / "records.csv").read_bytes() == \
        (out2 / "records.csv").read_bytes()
    assert (out1 / "normalized.csv").read_bytes() == \
        (out2 / "normalized.csv").read_bytes()


def test_benchmark_ends_with_unclean_runs_by_controller(tmp_path, capsys,
                                                       monkeypatch):
    """An unreachable output box leaves every step to an ADMM starved at 2
    iterations: stderr names the runs per controller, as records.csv."""
    monkeypatch.setattr(qp_module, "_MAX_ITER", 2)
    path = tmp_path / "unreachable.cfg"
    path.write_text(CONFIG_TEXT.format(out=tmp_path / "out").replace(
        "u_max = 2", "u_max = 2\ny_min = 100\ny_max = 200"))
    assert main(["benchmark", "--config", str(path), "--seeds", "2"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "4 runs did not report a clean solve",
        "causal_gamma: 2 of 2 runs max_iter", "spc: 2 of 2 runs max_iter"]


def test_benchmark_missing_config(tmp_path, capsys):
    assert main(["benchmark", "--config", str(tmp_path / "gone.cfg")]) == 1


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_benchmark_without_seeds_is_usage_error(mini_config, tmp_path,
                                                capsys, seeds):
    # no seeds would write an empty records.csv and exit 0
    out = tmp_path / "bench_out"
    assert main(["benchmark", "--config", str(mini_config),
                 "--out", str(out), "--seeds", seeds]) == 1
    assert "--seeds" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_benchmark_without_workers_is_usage_error(mini_config, tmp_path,
                                                  capsys, workers):
    # a count below one used to run serially and exit 0
    out = tmp_path / "bench_out"
    assert main(["benchmark", "--config", str(mini_config),
                 "--out", str(out), "--seeds", "1",
                 "--workers", workers]) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def test_tune_reports_parameter_lines(mini_config, capsys):
    code = main(["tune", "--config", str(mini_config)])
    out = capsys.readouterr().out
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("reg_gamma.mu")]
    assert len(line) == 1
    value = float(line[0].split("=")[1])
    assert any(np.isclose(value, v)
               for v in np.geomspace(0.01, 100.0, 2))


def test_tune_controller_override(mini_config, capsys):
    assert main(["tune", "--config", str(mini_config),
                 "--controller", "spc"]) == 1
    assert "nothing to tune" in capsys.readouterr().err


def test_tune_without_targets(tmp_path, capsys):
    path = tmp_path / "notune.cfg"
    path.write_text(CONFIG_TEXT.format(out=tmp_path / "out")
                    .replace("controllers = reg_gamma", "controllers ="))
    assert main(["tune", "--config", str(path)]) == 1
    assert "no controllers to tune" in capsys.readouterr().err
