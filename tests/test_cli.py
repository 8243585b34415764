import json

import numpy as np
import pytest

from parsvd.cli import emit_plot_data, main, read_matrix_text
from parsvd.errors import ConvergenceError
from parsvd.latency_model import BUILTIN_PROFILES, analytic_latency, total_ops
from parsvd.mimo_harness import SweepResult

from conftest import rand_complex


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_svd_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "svd", "--random", "8x4", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-9
    assert len(payload["sigma"]) == 4
    # parsing and re-serializing reproduces the bytes exactly
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_same_argv_same_bytes(capsys):
    _, out1, _ = run_cli(capsys, "svd", "--random", "6x3", "--seed", "9", "--format", "json")
    _, out2, _ = run_cli(capsys, "svd", "--random", "6x3", "--seed", "9", "--format", "json")
    assert out1 == out2


def _write_matrix(path, a):
    # the matrix text format: a "rows cols" header, then re/im pairs row-major
    pairs = [f"{float(z.real)!r} {float(z.imag)!r}" for z in np.ravel(a)]
    path.write_text("\n".join([f"{a.shape[0]} {a.shape[1]}", *pairs]) + "\n")


def test_matrix_file_roundtrip(tmp_path, capsys, rng):
    a = rand_complex(rng, 5, 3)
    path = tmp_path / "mat.txt"
    _write_matrix(path, a)
    back = read_matrix_text(str(path))
    np.testing.assert_array_equal(a, back)
    code, out, _ = run_cli(capsys, "svd", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-9


def test_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0 0.0\n")
    code, _, err = run_cli(capsys, "svd", "--input", str(path))
    assert code == 1
    assert "expected 8 numbers" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "svd", "--random", "8x4", "--no-such-flag")
    assert code == 1
    code, _, err = run_cli(capsys, "latency", "--alg", "bogus", "--size", "4x4")
    assert code == 1
    assert "bogus" in err
    code, _, err = run_cli(capsys, "svd")
    assert code == 1
    # latency and ops draw nothing at random, so they have no --seed
    for command in ("latency", "ops"):
        code, _, err = run_cli(capsys, command, "--alg", "dc", "--size", "8x8", "--seed", "1")
        assert code == 1
        assert "--seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mimo-mmimo", "--m", "8", "--k", "4", "--trials", "1", "--budgets", "1,x"),
        ("sweep", "--sizes", "4,x"),
    ],
)
def test_comma_list_entry_is_usage_error(capsys, argv):
    # a non-integer entry of --budgets or --sizes names the flag and the
    # entry, with exit 1 and no traceback
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error:")
    assert argv[-2] in err and "'x'" in err
    assert "Traceback" not in err


def test_numerical_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--algs", "gk", "--sizes", "4", "--mse-target", "1e-30",
        "--sweep-cap", "3", "--trials", "1",
    )
    assert code == 2
    assert "achieved" in err


def test_ops_tridiag_table_sums(capsys):
    code, out, _ = run_cli(
        capsys, "ops", "--alg", "tridiag", "--size", "4x4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ops"] == {"add": 378, "mul": 472, "div": 18, "sqrt": 9}


def test_latency_matches_model(capsys):
    code, out, _ = run_cli(
        capsys, "latency", "--alg", "4step-dc", "--size", "32x32",
        "--profile", "zynq-fp32", "--iters", "8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    want = analytic_latency("4step-dc", (32, 32), 8, BUILTIN_PROFILES["zynq-fp32"])
    assert payload["normalized_adders"] == pytest.approx(want.normalized_adders, rel=1e-12)
    assert payload["breakdown_ns"]["tridiagonalization"] > 0


def test_eig_input_file(tmp_path, capsys):
    # a Hermitian file solves; a non-Hermitian one is a usage error
    h = np.array([[2.0, 1.0 - 1.0j, 0.0], [1.0 + 1.0j, 3.0, 0.5j], [0.0, -0.5j, 1.0]])
    path = tmp_path / "herm.txt"
    _write_matrix(path, h)
    code, out, _ = run_cli(capsys, "eig", "--input", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3 and payload["residual"] <= 1e-12
    np.testing.assert_allclose(payload["eigenvalues"], np.linalg.eigvalsh(h), rtol=1e-12)
    h[0, 1] += 0.1
    _write_matrix(path, h)
    code, _, err = run_cli(capsys, "eig", "--input", str(path))
    assert code == 1
    assert "not Hermitian" in err


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--algs", "dc,qr", "--sizes", "4,8", "--trials", "1",
        "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].split(",") == ["x", "4step-dc", "4step-dc:ops", "4step-qr", "4step-qr:ops"]
    assert [row.split(",")[0] for row in lines[1:]] == ["4x4", "8x8"]
    assert [float(row.split(",")[1]) for row in lines[1:]] == payload["4step-dc"]


def test_trace_export(tmp_path, capsys):
    out_path = tmp_path / "graph.txt"
    code, out, _ = run_cli(
        capsys, "trace-export", "--alg", "tridiag", "--size", "4x4",
        "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == payload["nodes"]
    census = total_ops("tridiag", (4, 4))
    assert sum(payload["census"].values()) == census.total()


def test_trace_export_gk(tmp_path, capsys):
    # gk traces a random M x K matrix of --seed; the census is the model's
    out_path = tmp_path / "gk.txt"
    argv = ["trace-export", "--alg", "gk", "--size", "8x4", "--iters", "2", "--out", str(out_path)]
    code, out, _ = run_cli(capsys, *argv, "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(out_path.read_text().strip().split("\n")) == payload["nodes"]
    assert sum(payload["census"].values()) == total_ops("gk", (8, 4), 2).total()
    code, again, _ = run_cli(capsys, *argv, "--seed", "3", "--format", "json")
    assert code == 0 and again == out


def test_emit_plot_data_single_point(tmp_path):
    sweep = SweepResult(x=[1], series={"dc": [2.5]}, reference=3.0)
    path = tmp_path / "plot.csv"
    emit_plot_data(sweep, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines == ["x,dc,reference", "1,2.5,3.0"]
    emit_plot_data(sweep, str(path))
    assert path.read_text().strip().split("\n") == lines


def test_mimo_dmimo_csv(tmp_path, capsys):
    out_path = tmp_path / "cap.csv"
    code, out, _ = run_cli(
        capsys, "mimo-dmimo", "--panels", "2", "--m", "8", "--k", "8", "--t", "4",
        "--trials", "2", "--budgets", "1,4", "--algs", "dc", "--out", str(out_path),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    header = out_path.read_text().split("\n")[0].split(",")
    assert header[0] == "x" and "reference" in header
    assert len(payload["4step-dc"]) == 2


def test_mimo_mmimo_runs(capsys):
    code, out, _ = run_cli(
        capsys, "mimo-mmimo", "--m", "16", "--k", "4", "--trials", "2",
        "--budgets", "1,6", "--algs", "dc,gk", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["4step-dc"][-1] - payload["reference"]) <= 1e-6


def test_mimo_payloads_report_failed_trials(monkeypatch, capsys):
    # a sweep's skipped trials are in the payload, per algorithm and
    # budget, and for the reference
    from parsvd import mimo_harness

    def flaky(solve):
        calls = []

        def one_failure(hs, algorithm, budget):
            calls.append(budget)
            if budget == 2 and calls.count(2) == 1:
                raise ConvergenceError("stalled")
            return solve(hs, algorithm, budget)

        return one_failure

    for name in ("_truncated_svd", "_truncated_svd_stack"):
        monkeypatch.setattr(mimo_harness, name, flaky(getattr(mimo_harness, name)))
    tail = ("--trials", "2", "--budgets", "1,2", "--algs", "qr", "--format", "json")
    for argv in (
        ("mimo-mmimo", "--m", "8", "--k", "4") + tail,
        ("mimo-dmimo", "--panels", "2", "--m", "8", "--k", "4", "--t", "2") + tail,
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["trials_failed"] == {"4step-qr": [0, 1], "reference": 0}


def test_channel_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "chan.cfg"
    cfg_path.write_text("m 8\nk 8\npanels 2\nt 4\nsnr_db 0\ntrials 2\n")
    code, out, _ = run_cli(
        capsys, "mimo-dmimo", "--config", str(cfg_path), "--budgets", "4",
        "--algs", "dc", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["4step-dc"]) == 1
    # explicit flags override the file
    code, out2, _ = run_cli(
        capsys, "mimo-dmimo", "--config", str(cfg_path), "--k", "4", "--m", "8",
        "--t", "2", "--budgets", "4", "--algs", "dc", "--format", "json",
    )
    assert code == 0
    assert json.loads(out2)["reference"] != payload["reference"]
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense 1\n")
    code, _, err = run_cli(capsys, "mimo-mmimo", "--config", str(bad))
    assert code == 1
    assert "nonsense" in err


def test_channel_config_duplicate_key(tmp_path, capsys):
    cfg_path = tmp_path / "dup.cfg"
    cfg_path.write_text("m 8\nk 4\nm 16\n")
    code, _, err = run_cli(capsys, "mimo-mmimo", "--config", str(cfg_path), "--trials", "1")
    assert code == 1
    assert f"{cfg_path}:3:" in err and "duplicate" in err


def test_channel_config_seed(tmp_path, capsys):
    # precedence: --seed, then the file's seed, then 0
    plain = tmp_path / "plain.cfg"
    plain.write_text("m 8\nk 4\ntrials 2\n")
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text("m 8\nk 4\ntrials 2\nseed 5\n")

    def rates(*argv):
        code, out, _ = run_cli(
            capsys, "mimo-mmimo", *argv, "--budgets", "1", "--algs", "gk", "--format", "csv"
        )
        assert code == 0
        return out

    unseeded = rates("--config", str(plain))
    assert unseeded == rates("--config", str(plain), "--seed", "0")
    assert rates("--config", str(seeded)) != unseeded
    assert rates("--config", str(seeded)) == rates("--config", str(plain), "--seed", "5")
    assert rates("--config", str(seeded), "--seed", "0") == unseeded


def test_eig_command(capsys):
    code, out, _ = run_cli(capsys, "eig", "--random", "5x5", "--seed", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-10
    assert sorted(payload["eigenvalues"]) == payload["eigenvalues"]


_SMALL_RUNS = {
    "svd": ["--random", "6x3"],
    "eig": ["--random", "4x4"],
    "latency": ["--alg", "dc", "--size", "8x8"],
    "ops": ["--alg", "gk", "--size", "6x4", "--profile", "zynq-fxp32"],
    "trace-export": ["--alg", "qr", "--size", "4x4", "--iters", "2"],
    "sweep": ["--algs", "dc,qr", "--sizes", "4", "--trials", "1"],
    "mimo-dmimo": ["--panels", "2", "--m", "8", "--k", "4", "--t", "2", "--trials", "1",
                   "--budgets", "2", "--algs", "gk"],
    "mimo-mmimo": ["--m", "8", "--k", "4", "--trials", "1", "--budgets", "2", "--algs", "qr"],
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("command", list(_SMALL_RUNS))
def test_every_command_in_every_format(tmp_path, capsys, command, fmt):
    argv = [command, *_SMALL_RUNS[command], "--format", fmt]
    if command == "trace-export":
        argv += ["--out", str(tmp_path / "graph.txt")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if fmt == "json":
        assert isinstance(json.loads(out), dict)
    elif fmt == "csv":
        assert out.startswith("key,value\n")
    else:
        assert out and not out.startswith("key,value")
