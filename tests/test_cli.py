import dataclasses
import json

import numpy as np
import pytest

import myoctl.cli
from myoctl.cli import parse_args, run
from myoctl.pipeline import Session, read_session, write_session
from myoctl.plant import load_plant, make_fixture, smooth_random_controls

from inputs import noisy_pose_session


class TestParseArgs:
    def test_gen_fixture(self):
        args = parse_args(["gen-fixture", "--kind", "hand_like", "--out", "plant.txt"])
        assert args.command == "gen-fixture"
        assert args.kind == "hand_like"
        assert args.out == "plant.txt"

    def test_batch(self):
        args = parse_args(
            ["batch", "--in", "sessions/", "--plant", "plant.txt",
             "--workers", "8", "--out", "out/"]
        )
        assert args.command == "batch"
        assert args.input == "sessions/"
        assert args.workers == 8

    def test_missing_required_option_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["simulate"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["teleport"])
        assert excinfo.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_args([])
        assert excinfo.value.code == 2

    # Explicit ids keep each case's name whatever rows are added or removed.
    @pytest.mark.parametrize("command, option", [
        (["roundtrip"], "--duration"),
        (["simulate", "--plant", "p", "--out", "o"], "--duration"),
    ], ids=["command2---duration", "command3---duration"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3"])
    def test_tolerances_must_be_positive_and_finite(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(command + [f"{option}={value}"])
        assert excinfo.value.code == 2
        assert f"{option}: must be positive and finite" in capsys.readouterr().err

    def test_invert_has_no_fail_threshold(self, capsys):
        # The status rule is fixed: invert labels a session as batch does.
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["invert", "--plant", "p", "--in", "i", "--out", "o",
                        "--fail-threshold", "1e-3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --fail-threshold" in capsys.readouterr().err

    def test_roundtrip_has_no_rmse_tol(self, capsys):
        # The bound is fixed: criterion 1's and the benchmark's 1e-2 rad.
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["roundtrip", "--rmse-tol", "1e-2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --rmse-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        (["roundtrip"], "--rate"),
        (["simulate", "--plant", "p", "--out", "o"], "--rate"),
        (["batch", "--in", "i", "--plant", "p", "--out", "o"], "--workers"),
        (["resample", "--in", "i", "--out", "o"], "--to-hz"),
        (["gen-fixture", "--kind", "random", "--out", "o"], "--njoints"),
        (["gen-fixture", "--kind", "random", "--out", "o"], "--nactuators"),
    ])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_must_be_at_least_1(self, capsys, command, option, value):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(command + [f"{option}={value}"])
        assert excinfo.value.code == 2
        assert f"{option}: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--plant", "p", "--out", "o"],
        ["roundtrip"],
        ["gen-fixture", "--kind", "toy_finger", "--out", "o"],
    ], ids=["simulate", "roundtrip", "gen-fixture"])
    def test_seed_must_be_non_negative(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(command + ["--seed=-1"])
        assert excinfo.value.code == 2
        assert "--seed: must be non-negative, got '-1'" in capsys.readouterr().err
        assert parse_args(command + ["--seed", "0"]).seed == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-0.25"])
    def test_settle_must_be_non_negative_and_finite(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["simulate", "--plant", "p", "--out", "o", f"--settle={value}"])
        assert excinfo.value.code == 2
        assert "--settle: must be non-negative and finite" in capsys.readouterr().err

    def test_settle_of_zero_is_accepted(self):
        args = parse_args(["simulate", "--plant", "p", "--out", "o", "--settle", "0"])
        assert args.settle == 0.0

    @pytest.mark.parametrize("command, option, value, kind", [
        (["simulate", "--plant", "p", "--out", "o"], "--settle", "soon", "a number"),
        (["batch", "--in", "i", "--plant", "p", "--out", "o"], "--workers", "two", "an integer"),
        (["resample", "--in", "i", "--out", "o"], "--to-hz", "1.5", "an integer"),
    ], ids=["command1---settle-soon-a number", "command2---workers-two-an integer",
            "command3---to-hz-1.5-an integer"])
    def test_unparsable_values_are_reported_plainly(self, capsys, command, option, value, kind):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(command + [f"{option}={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{option}: must be {kind}, got {value!r}" in err
        assert "_positive" not in err and "invalid" not in err


class TestCommands:
    def test_gen_fixture_writes_loadable_plant(self, tmp_path):
        out = tmp_path / "plant.json"
        code = run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(out)]))
        assert code == 0
        plant = load_plant(out)
        assert plant.njoints == 2

    def test_gen_fixture_random_needs_dimensions(self, tmp_path):
        code = run(parse_args(
            ["gen-fixture", "--kind", "random", "--out", str(tmp_path / "p.json")]
        ))
        assert code == 1  # missing dimensions is a processing error

    def test_simulate_writes_pose_session(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        out = tmp_path / "poses"
        code = run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(out),
             "--duration", "0.5", "--rate", "500", "--seed", "3"]
        ))
        assert code == 0
        session = read_session(out)
        assert session.rate_hz == 500
        assert session.n_frames == 250
        assert session.channel_names == ("mcp", "pip")

    def test_simulate_saves_the_applied_controls(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        ctrl_dir = tmp_path / "ctrl"
        code = run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(tmp_path / "poses"),
             "--duration", "0.5", "--rate", "500", "--seed", "3", "--settle", "0.1",
             "--save-ctrl", str(ctrl_dir)]
        ))
        assert code == 0
        plant = load_plant(plant_path)
        controls = read_session(ctrl_dir)
        assert controls.channel_names == plant.actuator_names
        assert controls.rate_hz == 500
        assert controls.metadata["kind"] == "tendon_ctrl"
        expected = smooth_random_controls(plant.nactuators, 250, 1.0 / 500, 3, settle=0.1)
        assert controls.data.dtype == np.float32
        assert np.array_equal(controls.data, expected.T.astype(np.float32))

    @pytest.mark.parametrize("duration, rate, frames", [("0.001", "500", 0), ("0.002", "500", 1)])
    def test_simulate_names_the_flags_that_give_too_few_frames(
            self, tmp_path, capsys, duration, rate, frames):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        capsys.readouterr()
        code = run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(tmp_path / "poses"),
             "--duration", duration, "--rate", rate]
        ))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --duration {duration} s at --rate {rate} Hz gives {frames} frames; "
            "simulate needs at least 2\n")
        assert not (tmp_path / "poses").exists()

    def test_invert_500hz_session(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(poses),
             "--duration", "0.5", "--rate", "500", "--seed", "3"]
        ))
        out = tmp_path / "ctrl"
        code = run(parse_args(
            ["invert", "--plant", str(plant_path), "--in", str(poses), "--out", str(out)]
        ))
        assert code == 0
        session = read_session(out)
        assert session.n_frames == 250
        assert len(session.channel_names) == 4

    def test_invert_failure_exits_1_and_writes_nothing(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        write_session(noisy_pose_session(make_fixture("toy_finger"), 500), poses)
        capsys.readouterr()
        code = run(parse_args(["invert", "--plant", str(plant_path), "--in", str(poses),
                               "--out", str(tmp_path / "ctrl")]))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "inversion failed: 497 of 500 frames infeasible\n"
        assert captured.out == ""
        assert not (tmp_path / "ctrl").exists()

    def test_invert_passes_the_joint_map(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(["simulate", "--plant", str(plant_path), "--out", str(poses),
                        "--duration", "0.1", "--rate", "500", "--seed", "3"]))
        joint_map = tmp_path / "map.json"
        joint_map.write_text(json.dumps({"elbow": "mcp"}))
        capsys.readouterr()
        code = run(parse_args(["invert", "--plant", str(plant_path), "--in", str(poses),
                               "--out", str(tmp_path / "ctrl"), "--joint-map", str(joint_map)]))
        assert code == 1
        assert capsys.readouterr().err == "error: joint map references unknown joints: ['elbow']\n"
        assert not (tmp_path / "ctrl").exists()

    def test_joint_map_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(["simulate", "--plant", str(plant_path), "--out", str(poses),
                        "--duration", "0.1", "--rate", "500", "--seed", "3"]))
        joint_map = tmp_path / "map.json"
        joint_map.write_text(json.dumps([["mcp", "pip"]]))
        capsys.readouterr()
        code = run(parse_args(["invert", "--plant", str(plant_path), "--in", str(poses),
                               "--out", str(tmp_path / "ctrl"), "--joint-map", str(joint_map)]))
        assert code == 1
        assert capsys.readouterr().err == f"error: joint map {joint_map} must be a JSON object\n"
        assert not (tmp_path / "ctrl").exists()

    def test_joint_map_value_that_is_not_a_string_exits_1(self, tmp_path, capsys):
        # {"mcp": 5} used to be read as the channel "5", and null as "None".
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(["simulate", "--plant", str(plant_path), "--out", str(poses),
                        "--duration", "0.1", "--rate", "500", "--seed", "3"]))
        joint_map = tmp_path / "map.json"
        joint_map.write_text(json.dumps({"mcp": 5, "pip": None}))
        capsys.readouterr()
        code = run(parse_args(["invert", "--plant", str(plant_path), "--in", str(poses),
                               "--out", str(tmp_path / "out"), "--joint-map", str(joint_map)]))
        assert code == 1
        assert capsys.readouterr().err == ("error: joint map keys and values must be strings, "
                                           "not {'mcp': 5, 'pip': None}\n")
        assert not (tmp_path / "out").exists()

    def test_simulate_into_a_directory_holding_other_files_exits_1(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        capsys.readouterr()
        code = run(parse_args(["simulate", "--plant", str(plant_path), "--out", str(out),
                               "--duration", "0.1", "--rate", "500"]))
        assert code == 1
        assert capsys.readouterr().err == (f"error: refusing to replace {out}: it is not a "
                                           "directory holding only session.json and data.bin\n")
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_roundtrip_toy_finger(self, capsys):
        code = run(parse_args(["roundtrip", "--kind", "toy_finger", "--seed", "1",
                               "--duration", "0.5"]))
        captured = capsys.readouterr()
        assert code == 0
        assert "RMSE" in captured.out

    def test_roundtrip_failure_exit(self, capsys, monkeypatch):
        # The inverse is exact, so a real replay meets the tolerance; one that
        # misses by 2e-2 rad must fail the fixed 1e-2 rad tolerance.
        real = myoctl.cli.roundtrip

        def missing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), rmse=2e-2)

        monkeypatch.setattr(myoctl.cli, "roundtrip", missing)
        code = run(parse_args(
            ["roundtrip", "--kind", "toy_finger", "--seed", "1", "--duration", "0.5"]
        ))
        assert code == 1
        assert "roundtrip failed (tolerance 0.01 rad)" in capsys.readouterr().err

    def test_invert_2khz_session(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(poses),
             "--duration", "1.0", "--rate", "2000", "--seed", "5"]
        ))
        out = tmp_path / "ctrl"
        code = run(parse_args(
            ["invert", "--plant", str(plant_path), "--in", str(poses), "--out", str(out)]
        ))
        assert code == 0
        session = read_session(out)
        assert session.rate_hz == 2000
        assert session.n_frames == 2000

    @pytest.mark.parametrize("spelling", ["same", "dotdot"])
    def test_invert_refuses_an_output_that_is_its_input(self, tmp_path, capsys, spelling):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        poses = tmp_path / "poses"
        run(parse_args(
            ["simulate", "--plant", str(plant_path), "--out", str(poses),
             "--duration", "0.5", "--rate", "2000", "--seed", "5"]
        ))
        before = {p: p.read_bytes() for p in poses.rglob("*") if p.is_file()}
        out = {"same": poses, "dotdot": poses / ".." / "poses"}[spelling]
        capsys.readouterr()
        code = run(parse_args(
            ["invert", "--plant", str(plant_path), "--in", str(poses), "--out", str(out)]
        ))
        assert code == 1
        assert f"--out {out} resolves to --in {poses}" in capsys.readouterr().err
        assert '"kind": "pose"' in (poses / "session.json").read_text()
        assert {p: p.read_bytes() for p in poses.rglob("*") if p.is_file()} == before

    def test_resample_session(self, tmp_path):
        t = np.arange(4000) / 2000.0
        sine = 0.3 * np.sin(2 * np.pi * 10.0 * t)
        write_session(
            Session(id="sine", rate_hz=2000, channel_names=("a",), data=sine[None, :]),
            tmp_path / "in",
        )
        code = run(parse_args(
            ["resample", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
             "--to-hz", "500"]
        ))
        assert code == 0
        out = read_session(tmp_path / "out")
        assert out.rate_hz == 500
        assert out.n_frames == 1000
        interior = np.asarray(out.data[0][64:-64], dtype=float)
        expected = sine[::4][64:-64]
        assert np.abs(interior - expected).max() < 1e-3

    def test_batch_with_corrupt_session(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        src = tmp_path / "sessions"
        for i in range(3):
            run(parse_args(
                ["simulate", "--plant", str(plant_path), "--out", str(src / f"s{i}"),
                 "--duration", "0.5", "--rate", "2000", "--seed", str(i)]
            ))
        blob = (src / "s1" / "data.bin").read_bytes()
        (src / "s1" / "data.bin").write_bytes(blob[:100])
        code = run(parse_args(
            ["batch", "--in", str(src), "--plant", str(plant_path),
             "--out", str(tmp_path / "out"), "--workers", "1"]
        ))
        assert code == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["totals"] == {"sessions": 3, "ok": 2, "failed": 1}

    def test_batch_with_unknown_joint_map_key_fails_once(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        src = tmp_path / "sessions"
        for i in range(3):
            run(parse_args(
                ["simulate", "--plant", str(plant_path), "--out", str(src / f"s{i}"),
                 "--duration", "0.1", "--rate", "2000", "--seed", str(i)]
            ))
        joint_map = tmp_path / "map.json"
        joint_map.write_text(json.dumps({"elbow": "mcp"}))
        capsys.readouterr()
        code = run(parse_args(
            ["batch", "--in", str(src), "--plant", str(plant_path),
             "--out", str(tmp_path / "out"), "--joint-map", str(joint_map)]
        ))
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: joint map references unknown joints: ['elbow']\n"
        assert not (tmp_path / "out").exists()

    def test_identical_seeds_give_identical_outputs(self, tmp_path):
        plant_path = tmp_path / "plant.json"
        run(parse_args(["gen-fixture", "--kind", "toy_finger", "--out", str(plant_path)]))
        for name in ("a", "b"):
            code = run(parse_args(
                ["simulate", "--plant", str(plant_path), "--out", str(tmp_path / name),
                 "--duration", "0.5", "--rate", "500", "--seed", "11"]
            ))
            assert code == 0
        blob_a = (tmp_path / "a" / "data.bin").read_bytes()
        blob_b = (tmp_path / "b" / "data.bin").read_bytes()
        assert blob_a == blob_b

    def test_missing_plant_file_exits_1(self, tmp_path):
        code = run(parse_args(
            ["simulate", "--plant", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "s")]
        ))
        assert code == 1
