import argparse
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netsig
from netsig import cli, engine, reliability
from netsig.cli import main
from netsig.fixtures import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"artifact holds {name}, which is not JSON")


def load_artifact(stdout):
    return json.loads(stdout, parse_constant=_reject_constant)


def package_env():
    """The environment of a child Python that imports this checkout's netsig."""
    src = str(Path(netsig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def strip_duration(artifact):
    artifact = json.loads(json.dumps(artifact))
    artifact["manifest"]["duration_seconds"] = 0.0
    return artifact


class TestNstar:
    def test_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "nstar", "12")
        assert code == 0
        assert "2 | 3" in out
        assert "120 | 541" in out
        assert "479,001,600 | 28,091,567,595" in out

    def test_usage_error_below_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["nstar", "1"])
        assert err.value.code == 2

    def test_usage_error_above_the_maximum(self, capsys):
        # Refused before any row is computed: a large N would run out of memory.
        with pytest.raises(SystemExit) as err:
            main(["nstar", str(cli.MAX_NSTAR + 1)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: N must lie in [2, {cli.MAX_NSTAR}]\n")


class TestExact:
    def test_series_artifact(self, capsys):
        code, out, _ = run_cli(capsys, "exact", str(fixture_path("series2")))
        assert code == 0
        artifact = load_artifact(out)
        assert artifact["n"] == 2
        assert artifact["values"] == [1.0, 0.0]
        assert artifact["counts"] == ["3", "0"]
        assert artifact["total"] == "3"
        assert artifact["manifest"]["command"] == "exact"

    def test_counts_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "exact", str(fixture_path("bridge")))
        artifact = load_artifact(out)
        assert sum(int(c) for c in artifact["counts"]) == int(artifact["total"])

    def test_cap_refusal_exit_code(self, tmp_path, capsys):
        # The paper-greedy t-signature visits 3^n pairs: refused above 12 links.
        graph = tmp_path / "parallel13.graph"
        graph.write_text("terminals s t\n" + "edge s t\n" * 13)
        code, out, err = run_cli(capsys, "exact", str(graph), "--m-mode", "paper-greedy")
        assert code == 4 and out == ""
        assert err == "error: 13 links is above the paper-greedy limit of 12 links; use sampling\n"

    @pytest.mark.parametrize("command", ["exact", "signature", "reliability"])
    def test_schedule_refusal_exit_code(self, tmp_path, capsys, command):
        # 40 terminals: the first step's tables alone would pass the memory
        # budget, so the refusal comes before anything is built.
        graph = tmp_path / "star40.graph"
        graph.write_text("terminals " + " ".join(f"t{i}" for i in range(40)) + "\n"
                         + "".join(f"edge hub t{i}\n" for i in range(40)))
        code, out, err = run_cli(capsys, command, str(graph))
        assert code == 4 and out == ""
        assert err.startswith("error: the frontier program needs more than ")
        assert err.endswith(" bytes at link 1 of 40; use sampling\n")

    def test_state_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        # The 3x5 grid with corner terminals peaks at 11,823,080 bytes by the
        # DP's bounds (test_engine.py): a budget one byte lower lets its
        # first 17 steps through and refuses the 18th.
        monkeypatch.setattr(engine, "MEMORY_BUDGET", 11_823_079)
        graph = tmp_path / "grid3x5.graph"
        edges = [f"edge v{r}_{c} v{r + dr}_{c + dc}\n" for r in range(3) for c in range(5)
                 for dr, dc in ((0, 1), (1, 0)) if r + dr < 3 and c + dc < 5]
        graph.write_text("terminals v0_0 v2_4\n" + "".join(edges))
        code, out, err = run_cli(capsys, "exact", str(graph))
        assert code == 4 and out == ""
        assert err == ("error: the frontier program needs more than 11,823,079 bytes "
                       "at link 18 of 22; use sampling\n")

    def test_bad_graph_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("terminals s t\nedge s s\n")
        code, _, err = run_cli(capsys, "exact", str(bad))
        assert code == 3
        assert "self-loop" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "/nonexistent.graph")
        assert code == 3

    def test_directory_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "exact", str(tmp_path))
        assert code == 3
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("graph, out", [
        ("figure1.graph/", None),  # a file named as a directory
        ("figure1.graph", "figure1.graph/x.json"),
    ])
    def test_file_as_directory_exit_code(self, tmp_path, capsys, graph, out):
        (tmp_path / "figure1.graph").write_text(fixture_path("figure1").read_text())
        argv = ["exact", f"{tmp_path}/{graph}"] + (["--out", f"{tmp_path}/{out}"] if out else [])
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_unsupported_mode_exit_code(self, capsys):
        # figure1 has three terminals; the greedy count is two-terminal only
        code, _, err = run_cli(
            capsys, "exact", str(fixture_path("figure1")), "--m-mode", "paper-greedy"
        )
        assert code == 3
        assert "two-terminal" in err and len(err.splitlines()) == 1
        # The error names the mode to use by a value --m-mode accepts.
        suggested = err.rstrip("\n").rsplit("; use ", 1)[1]
        assert suggested in engine.M_MODES
        assert run_cli(capsys, "exact", str(fixture_path("figure1")), "--m-mode", suggested)[0] == 0

    @pytest.mark.parametrize("command", ["exact", "approx"])
    def test_m_mode_choices_are_the_library_names(self, command):
        parse = cli.build_parser().parse_args
        extra = ["--samples", "1"] if command == "approx" else []
        assert parse([command, "g", *extra]).m_mode == engine.M_MODES[0]
        for m_mode in engine.M_MODES:
            assert parse([command, "g", *extra, "--m-mode", m_mode]).m_mode == m_mode

    @pytest.mark.parametrize("value", ["greedy", "exact"])
    def test_old_m_mode_spelling_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["exact", str(fixture_path("bridge")), "--m-mode", value])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["exact", "approx"])
    @pytest.mark.parametrize("m_mode", engine.M_MODES)
    def test_manifest_m_mode_is_the_payload_m_mode(self, capsys, command, m_mode):
        argv = [command, str(fixture_path("bridge")), "--m-mode", m_mode]
        code, out, _ = run_cli(capsys, *argv, *(["--samples", "50"] if command == "approx" else []))
        artifact = load_artifact(out)
        assert code == 0 and artifact["manifest"]["flags"]["m_mode"] == artifact["m_mode"] == m_mode

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", str(fixture_path("series2")), "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,count,value"
        assert lines[1] == "1,3,1.0"


class TestApprox:
    def test_single_sample_unit_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", str(fixture_path("bridge")), "--samples", "1"
        )
        assert code == 0
        artifact = load_artifact(out)
        assert sorted(artifact["values"], reverse=True)[0] == 1.0
        assert artifact["std_error"] == [0.0] * 5

    def test_scientific_notation_samples(self, capsys):
        code, out, _ = run_cli(
            capsys, "approx", str(fixture_path("series2")), "--samples", "1e2"
        )
        assert code == 0
        assert load_artifact(out)["total"] == "100"

    @pytest.mark.parametrize("samples", ["inf", "1e400", "nan", "2.7", "ten"])
    def test_bad_samples_usage_error(self, capsys, samples):
        # Non-finite and fractional counts are refused, never truncated.
        with pytest.raises(SystemExit) as err:
            main(["approx", str(fixture_path("series2")), "--samples", samples])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        assert err_text.splitlines()[-1].startswith("netsig approx: error: argument --samples")

    def test_large_integer_samples_parse_exactly(self):
        args = cli.build_parser().parse_args(
            ["approx", "g", "--samples", "100000000000000000000001"]
        )
        assert args.samples == 10**23 + 1

    def test_deterministic_across_workers(self, capsys):
        # the payload is worker-count independent; only the manifest records
        # the differing --workers flag
        args = ["approx", str(fixture_path("bridge")), "--samples", "2000", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out2, _ = run_cli(capsys, *args, "--workers", "4")
        a, b = load_artifact(out1), load_artifact(out2)
        a.pop("manifest")
        b.pop("manifest")
        assert a == b

    def test_workers_above_ceiling_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "approx", str(fixture_path("bridge")), "--samples", "10",
            "--workers", str(engine.MAX_WORKERS + 1),
        )
        assert code == 3 and out == ""
        assert err.startswith("error: workers") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exit_code(self, capsys, seed):
        # Masked to 64 bits, -1 would draw what 2**64 - 1 draws, and 2**64
        # what 0 draws.
        code, out, err = run_cli(
            capsys, "approx", str(fixture_path("bridge")), "--samples", "10", "--seed", seed
        )
        assert code == 3 and out == ""
        assert err.startswith("error: seed") and len(err.splitlines()) == 1

    def test_rerun_byte_identical_modulo_duration(self, capsys):
        args = ["approx", str(fixture_path("bridge")), "--samples", "500", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        a, b = strip_duration(load_artifact(out1)), strip_duration(load_artifact(out2))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSignature:
    def test_bridge(self, capsys):
        code, out, _ = run_cli(capsys, "signature", str(fixture_path("bridge")))
        assert code == 0
        artifact = load_artifact(out)
        assert artifact["values"] == [0.0, 0.2, 0.6, 0.2, 0.0]
        assert artifact["total"] == "120"

    def test_single_edge(self, capsys):
        _, out, _ = run_cli(capsys, "signature", str(fixture_path("single_edge")))
        assert load_artifact(out)["values"] == [1.0]

    def test_series3(self, capsys):
        _, out, _ = run_cli(capsys, "signature", str(fixture_path("series3")))
        assert load_artifact(out)["values"] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("command", ["signature", "reliability"])
    def test_workers_is_a_usage_error(self, capsys, command):
        # The frontier program runs in one process: only `exact` (for the
        # paper-greedy pairs) and `approx` take --workers.
        with pytest.raises(SystemExit) as err:
            main([command, str(fixture_path("bridge")), "--workers", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["signature", "reliability"])
    def test_m_mode_is_a_usage_error(self, capsys, command):
        # A one-link fatal block scores 1 in both m-modes: the classic
        # signature has nothing to select.
        with pytest.raises(SystemExit) as err:
            main([command, str(fixture_path("bridge")), "--m-mode", "paper-greedy"])
        assert err.value.code == 2

    def test_manifest_has_no_m_mode(self, capsys):
        _, out, _ = run_cli(capsys, "signature", str(fixture_path("bridge")))
        artifact = load_artifact(out)
        assert artifact["manifest"]["flags"] == {} and artifact["m_mode"] == "exact-subset"


class TestReliability:
    def test_series_poisson_final_point(self, capsys):
        import math

        code, out, _ = run_cli(
            capsys, "reliability", str(fixture_path("series2")),
            "--process", "poisson", "--rate", "1", "--tmax", "1", "--steps", "4",
        )
        assert code == 0
        artifact = load_artifact(out)
        assert artifact["times"][0] == 0.0
        assert artifact["survival"][0] == 1.0
        assert abs(artifact["survival"][-1] - math.exp(-1)) < 1e-12

    def test_process_choices_are_the_library_names(self, capsys):
        parse = cli.build_parser().parse_args
        assert parse(["reliability", "g"]).process == reliability.PROCESSES[0]
        for process in reliability.PROCESSES:
            assert parse(["reliability", "g", "--process", process]).process == process
        with pytest.raises(SystemExit):
            parse(["reliability", "--help"])
        assert "--process {%s}" % ",".join(reliability.PROCESSES) in capsys.readouterr().out

    def test_parallel_poisson_point(self, capsys):
        import math

        _, out, _ = run_cli(
            capsys, "reliability", str(fixture_path("parallel2")),
            "--rate", "1", "--tmax", "1", "--steps", "10",
        )
        artifact = load_artifact(out)
        assert abs(artifact["survival"][-1] - 2 * math.exp(-1)) < 1e-12

    def test_accepts_signature_artifact(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "exact", str(fixture_path("parallel2")))
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(out)
        code, out2, _ = run_cli(
            capsys, "reliability", str(artifact_file), "--tmax", "1", "--steps", "2"
        )
        assert code == 0
        assert load_artifact(out2)["survival"][0] == 1.0

    def test_overflowing_poisson_mean_gives_zero(self, capsys):
        # rate * t overflows to inf; the curve used to hold NaN, not JSON.
        code, out, _ = run_cli(
            capsys, "reliability", str(fixture_path("bridge")),
            "--rate", "1e300", "--tmax", "1e10", "--steps", "2",
        )
        assert code == 0
        assert load_artifact(out)["survival"] == [1.0, 0.0, 0.0]

    def test_time_grid_near_float_max(self, capsys):
        # tmax * i overflows at the last point, although tmax itself is finite.
        code, out, _ = run_cli(
            capsys, "reliability", str(fixture_path("bridge")), "--tmax", "1e308", "--steps", "2"
        )
        assert code == 0
        assert load_artifact(out)["times"] == [0.0, 5e307, 1e308]

    def test_time_grid_is_tmax_times_i_over_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "reliability", str(fixture_path("bridge")), "--tmax", "0.3", "--steps", "7"
        )
        assert code == 0
        assert load_artifact(out)["times"] == [0.3 * i / 7 for i in range(8)]

    def test_non_finite_survival_exit_code(self, capsys, monkeypatch):
        # A non-finite value ends in the one-line input error, not in NaN.
        survival = [1.0] + [math.nan] * 100
        monkeypatch.setattr(cli, "survival_mixture", lambda sig, process, rate, grid: survival)
        code, out, err = run_cli(capsys, "reliability", str(fixture_path("bridge")))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_non_finite_survival_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # The JSON is encoded whole before the file is opened.
        survival = [1.0] + [math.nan] * 100
        monkeypatch.setattr(cli, "survival_mixture", lambda sig, process, rate, grid: survival)
        target = tmp_path / "curve.json"
        code, _, _ = run_cli(capsys, "reliability", str(fixture_path("bridge")),
                             "--out", str(target))
        assert code == 3 and not target.exists()

    def test_out_of_memory_exit_code(self, capsys, monkeypatch):
        # A MemoryError ends in one line and exit 4, not in a traceback and
        # exit 1, which means the pipe was closed.
        def grid(tmax, steps):
            raise MemoryError
        monkeypatch.setattr(cli, "_time_grid", grid)
        code, out, err = run_cli(capsys, "reliability", str(fixture_path("figure1")))
        assert code == 4 and out == ""
        assert err == "error: out of memory\n"

    def test_zero_steps_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reliability", str(fixture_path("bridge")), "--steps", "0"])
        assert err.value.code == 2

    def test_steps_above_bound_usage_error(self, capsys, monkeypatch):
        # More than MAX_STEPS is refused before any grid is built; MAX_STEPS
        # itself reaches the grid (stubbed here, to build nothing).
        built = []

        def grid(tmax, steps):
            built.append(steps)
            raise MemoryError
        monkeypatch.setattr(cli, "_time_grid", grid)
        with pytest.raises(SystemExit) as err:
            main(["reliability", str(fixture_path("bridge")), "--steps", str(cli.MAX_STEPS + 1)])
        assert err.value.code == 2 and built == []
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].endswith("error: --steps must lie in [1, 1000000]")
        code, _, _ = run_cli(capsys, "reliability", str(fixture_path("bridge")),
                             "--steps", str(cli.MAX_STEPS))
        assert code == 4 and built == [10**6]

    @pytest.mark.parametrize("text", [
        '{"n": 2}',
        # counts must be a JSON list, not a string or an object to iterate
        '{"n": 3, "counts": "123", "total": "6", "mode": "exact", "m_mode": "exact-subset"}',
        '{"n": 2, "counts": {"1": 0, "2": 0}, "total": "3", "mode": "exact", '
        '"m_mode": "exact-subset"}',
        '{"n": 2',
        '{"n": 2, "counts": ["1.5", "0"], "total": "1", "mode": "exact", "m_mode": "exact-subset"}',
    ], ids=["missing fields", "counts a string", "counts an object", "truncated",
            "count a decimal string"])
    def test_malformed_artifact_exit_code(self, tmp_path, capsys, text):
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(text)
        code, _, err = run_cli(capsys, "reliability", str(artifact_file))
        assert code == 3
        assert err.startswith(f"error: {artifact_file}: not a signature artifact (")
        assert len(err.splitlines()) == 1

    def test_deeply_nested_artifact_exit_code(self, tmp_path, capsys):
        # Nesting past the recursion limit is a malformed artifact: one line
        # and exit 3, not a traceback and exit 1, the closed-pipe code.
        artifact_file = tmp_path / "deep.json"
        artifact_file.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "reliability", str(artifact_file), "--steps", "2")
        assert code == 3 and out == ""
        assert "not a signature artifact (RecursionError" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("mode", "nonsense"), ("m_mode", "x")])
    def test_unknown_artifact_mode_exit_code(self, tmp_path, capsys, field, value):
        _, out, _ = run_cli(capsys, "exact", str(fixture_path("parallel2")))
        artifact = load_artifact(out)
        artifact[field] = value
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(json.dumps(artifact))
        code, out2, err = run_cli(capsys, "reliability", str(artifact_file))
        assert code == 3 and out2 == ""
        assert err.startswith(f"error: unknown {field}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("counts, total", [
        (["0", "0"], "0"),  # used to divide by zero
        (["-1", "4"], "3"),  # used to give survival above 1
    ])
    def test_impossible_counts_exit_code(self, tmp_path, capsys, counts, total):
        artifact = {"n": 2, "counts": counts, "total": total,
                    "mode": "exact", "m_mode": "exact-subset"}
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(json.dumps(artifact))
        code, out, err = run_cli(capsys, "reliability", str(artifact_file), "--steps", "2")
        assert code == 3 and out == ""
        assert "nonnegative with a positive total" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["Infinity", "1e400", "2.7", "true"])
    @pytest.mark.parametrize("field", ["n", "counts", "total"])
    def test_non_integer_artifact_number_exit_code(self, tmp_path, capsys, field, value):
        # A count of Infinity or 1e400 used to end in an OverflowError
        # traceback, int() truncated 2.7 and took true for 1, and a float n
        # failed inside the binomial model.
        numbers = {"n": "2", "counts": '["3", "0"]', "total": '"3"'}
        numbers[field] = f'[{value}, "0"]' if field == "counts" else value
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(
            '{"mode": "exact", "m_mode": "exact-subset", '
            + ", ".join(f'"{key}": {text}' for key, text in numbers.items()) + "}"
        )
        code, out, err = run_cli(
            capsys, "reliability", str(artifact_file), "--steps", "2", "--process", "binomial"
        )
        assert code == 3 and out == ""
        assert "expected an integer" in err and len(err.splitlines()) == 1

    def test_integer_artifact_numbers_accepted(self, tmp_path, capsys):
        artifact_file = tmp_path / "sig.json"
        artifact_file.write_text(
            '{"n": 2, "counts": [3, "0"], "total": 3, "mode": "exact", "m_mode": "exact-subset"}'
        )
        code, out, _ = run_cli(capsys, "reliability", str(artifact_file), "--steps", "2")
        assert code == 0 and load_artifact(out)["survival"][0] == 1.0

    @pytest.mark.parametrize("flag, value", [
        ("--rate", "inf"), ("--tmax", "inf"), ("--tmax", "nan"), ("--tmax", "-inf"),
    ])
    def test_non_finite_argument_exit_code(self, capsys, flag, value):
        # `--tmax=-inf` in one word: argparse reads a separate `-inf` as an option.
        code, out, err = run_cli(
            capsys, "reliability", str(fixture_path("bridge")), f"{flag}={value}", "--steps", "2"
        )
        assert code == 3 and out == ""
        assert "finite" in err and len(err.splitlines()) == 1

    def test_negative_tmax_usage_error(self, capsys):
        # Finite and negative: refused as a usage error that names the flag
        # (a non-finite one fails the time grid's check, above).
        with pytest.raises(SystemExit) as err:
            main(["reliability", str(fixture_path("bridge")), "--tmax", "-1"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: --tmax must not be negative\n")

    def test_closed_stdout_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "netsig.cli", "reliability",
             str(fixture_path("bridge")), "--steps", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
        )
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestOSErrors:
    """An output or input path the system refuses ends in one line and exit
    3, in a CLI process."""

    @staticmethod
    def run(*argv, stdout=subprocess.DEVNULL):
        # The process writes to stdout once more after `main` returns: after
        # a failed write, stdout must point at devnull, or that write fails.
        code = ("import sys; from netsig.cli import main; "
                "code = main(sys.argv[1:]); print('more'); sys.exit(code)")
        return subprocess.run([sys.executable, "-c", code, *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=package_env())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, stdout", [
        (("exact", str(fixture_path("figure1")), "--out", "/dev/full"), os.devnull),
        (("exact", str(fixture_path("figure1"))), "/dev/full"),
        (("exact", str(fixture_path("figure1")), "--output", "csv"), "/dev/full"),
        (("nstar", "20"), "/dev/full"),
    ])
    def test_full_device(self, argv, stdout):
        with open(stdout, "w") as f:
            proc = self.run(*argv, stdout=f)
        assert proc.returncode == 3
        assert proc.stderr == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("out", [False, True])
    def test_name_too_long(self, tmp_path, out):
        long = str(tmp_path / ("x" * 300))
        graph = str(fixture_path("figure1"))
        proc = self.run("exact", *((graph, "--out", long) if out else (long,)))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert os.strerror(errno.ENAMETOOLONG) in proc.stderr


class TestArtifactFiles:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "exact", str(fixture_path("series2")), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        artifact = json.loads(target.read_text())
        assert artifact["values"] == [1.0, 0.0]

    def test_round_trip_recovers_numbers(self, capsys):
        _, out, _ = run_cli(
            capsys, "approx", str(fixture_path("bridge")), "--samples", "1000"
        )
        artifact = load_artifact(out)
        again = json.loads(json.dumps(artifact))
        assert again == artifact

    def test_sampled_std_error_round_trips(self, tmp_path, capsys):
        # A sampled artifact read back gives, float for float, the std_error
        # it was written with: both come from its counts by one expression.
        target = tmp_path / "sig.json"
        code, _, _ = run_cli(capsys, "approx", str(fixture_path("figure1")),
                             "--samples", "1000", "--seed", "3", "--out", str(target))
        assert code == 0
        written = json.loads(target.read_text())["std_error"]
        sig, _ = cli._load_signature_input(str(target))
        assert sig.mode == "sampled" and 0.0 < max(written)
        assert [se.hex() for se in sig.std_error] == [se.hex() for se in written]


class TestEmit:
    """`_emit` writes the text of `json.dumps(payload, indent=2,
    sort_keys=True)`, byte for byte."""

    @staticmethod
    def emitted(payload, capsys):
        cli._emit(payload, argparse.Namespace(output="json", out=None))
        return capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("exact", str(fixture_path("figure1"))),
        ("signature", str(fixture_path("bridge"))),
        ("approx", str(fixture_path("bridge")), "--samples", "500", "--seed", "4"),
        ("reliability", str(fixture_path("figure1")), "--steps", "300"),
        ("reliability", str(fixture_path("bridge")), "--process", "binomial", "--steps", "300"),
    ])
    def test_real_payloads(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        payload = load_artifact(out)
        assert self.emitted(payload, capsys) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        {"empty": [], "one": [0.5], "ints": [3, 0, -7, 2**70]},
        {"floats": [5e-324, 1e16, 1e-7, 0.1 + 0.2, -0.0], "x": 1.0},
        {"manifest": {"flags": {"seed": 3, "rate": 1e300}, "name": "a, b", "none": None},
         "counts": ["1", "2"], "nested": [[1, 2], {"k": []}], "z": []},
    ])
    def test_hand_made_payloads(self, capsys, payload):
        assert self.emitted(payload, capsys) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, capsys, value):
        with pytest.raises(ValueError):
            self.emitted({"survival": [1.0, value]}, capsys)
        with pytest.raises(ValueError):
            self.emitted({"manifest": {"rate": value}}, capsys)


def test_import_leaves_process_pool_unloaded():
    # The process pool is imported only by a run with more than one worker,
    # so a one-worker run never pays for multiprocessing.
    code = (
        "import sys, netsig.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=package_env()
    )
    assert out.stdout.strip() == "[]"


def test_import_leaves_hashlib_unloaded():
    # Only the sampler and the CLI hash, so a bare import does not pay for
    # loading hashlib and its OpenSSL binding.
    code = "import sys, netsig; print('hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=package_env()
    )
    assert out.stdout.strip() == "False"


def test_cli_runs_load_no_unused_library(tmp_path):
    # Without `site` (whose hooks may import anything), a CLI call loads
    # only what it runs: no `dataclasses` and what it pulls in, no module
    # that was used only in an annotation, and no `pathlib` with the
    # `urllib.parse` and `ipaddress` it imports.  (`fnmatch` still loads:
    # argparse's help formatter imports `shutil`, which imports it.)
    graph = str(fixture_path("figure1"))
    art = str(tmp_path / "exact.json")
    code = (
        "import sys; from netsig.cli import main; "
        f"main(['exact', {graph!r}, '--out', {art!r}]); "
        f"main(['approx', {graph!r}, '--samples', '50', '--out', {str(tmp_path / 'a.json')!r}]); "
        f"main(['reliability', {art!r}, '--out', {str(tmp_path / 'r.json')!r}]); "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'random', "
        "'importlib.resources', 'pathlib', 'urllib.parse', 'ipaddress'} "
        "& set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env=package_env(),
    )
    assert out.stdout.strip() == "[]"


def test_cli_runs_leave_openssl_unloaded(tmp_path):
    # `exact` and `approx` hash with the builtin SHA-256 and BLAKE2b, so a
    # CLI call never loads hashlib's OpenSSL binding; the digest is still
    # hashlib's.
    import hashlib

    graph = fixture_path("figure1")
    outs = [tmp_path / "exact.json", tmp_path / "approx.json"]
    code = (
        "import sys; from netsig.cli import main; "
        f"main(['exact', {str(graph)!r}, '--out', {str(outs[0])!r}]); "
        f"main(['approx', {str(graph)!r}, '--samples', '50', '--out', {str(outs[1])!r}]); "
        "print('_hashlib' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=package_env()
    )
    assert out.stdout.strip() == "False"
    digest = hashlib.sha256(Path(graph).read_bytes()).hexdigest()
    for path in outs:
        assert json.loads(path.read_text())["manifest"]["input_sha256"] == digest
