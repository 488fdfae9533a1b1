import json
import re
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import myoctl.pipeline
from myoctl.inverse import invert_trajectory
from myoctl.pipeline import (
    ConfigurationError,
    Manifest,
    Session,
    SessionFormatError,
    SessionRecord,
    SessionTruncatedError,
    SessionVersionError,
    process_session,
    read_session,
    run_batch,
    write_session,
)
from myoctl.plant import make_fixture, rest_state, rollout, smooth_random_controls


@pytest.fixture(scope="module")
def toy_plant():
    return make_fixture("toy_finger")


def pose_session(plant, seed=0, nframes=2000, session_id="sess"):
    """Rest-to-rest forward-simulated pose session at 2 kHz."""
    dt = 1.0 / 2000.0
    ctrl = smooth_random_controls(plant.nactuators, nframes, dt, seed, settle=0.25)
    result = rollout(plant, rest_state(plant), ctrl, dt)
    return Session(
        id=session_id,
        rate_hz=2000,
        channel_names=plant.joint_names,
        data=result.q.T,
        units=("rad",) * plant.njoints,
        metadata={"seed": seed},
    )


def edited_session(tmp_path, field, edit):
    """A written 3-channel session whose header has one field edited.

    For ``"channels"``, ``edit = (i, j)`` gives channel ``j`` the name of
    channel ``i``; otherwise ``edit`` is the raw JSON text of the field.
    """
    path = tmp_path / "edited"
    session = Session(id="e", rate_hz=2000, channel_names=("a", "b", "c"),
                      data=np.zeros((3, 20)))
    write_session(session, path)
    header = json.loads((path / "session.json").read_text())
    if field == "channels":
        i, j = edit
        header["channels"][j]["name"] = header["channels"][i]["name"]
        text = json.dumps(header)
    else:
        header[field] = "@EDIT@"
        text = json.dumps(header).replace('"@EDIT@"', edit)
    (path / "session.json").write_text(text)
    return path


def bad_count_token(minimum):
    """Raw JSON text that is no whole number of at least ``minimum``."""
    return st.one_of(
        st.integers(max_value=minimum - 1).map(str),
        st.floats(allow_nan=False, allow_infinity=False)
        .filter(lambda v: not v.is_integer()).map(repr),
        st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false",
                         "null", '"2000"', "[2000]", "{}"]),
    )


class TestSessionContainer:
    def test_write_read_round_trip(self, tmp_path, toy_plant):
        session = pose_session(toy_plant, seed=1, nframes=400)
        write_session(session, tmp_path / "s")
        assert read_session(tmp_path / "s") == session

    def test_nan_values_survive_the_container(self, tmp_path):
        data = np.array([[1.0, np.nan, 3.0]], dtype=np.float32)
        session = Session(id="n", rate_hz=500, channel_names=("a",), data=data)
        write_session(session, tmp_path / "n")
        assert read_session(tmp_path / "n") == session

    def test_version_mismatch(self, tmp_path, toy_plant):
        write_session(pose_session(toy_plant, nframes=100), tmp_path / "s")
        header = json.loads((tmp_path / "s" / "session.json").read_text())
        header["format"] = "myoctl-session/99"
        (tmp_path / "s" / "session.json").write_text(json.dumps(header))
        with pytest.raises(SessionVersionError, match="myoctl-session/1"):
            read_session(tmp_path / "s")

    def test_truncated_payload(self, tmp_path, toy_plant):
        write_session(pose_session(toy_plant, nframes=100), tmp_path / "s")
        blob = (tmp_path / "s" / "data.bin").read_bytes()
        (tmp_path / "s" / "data.bin").write_bytes(blob[:-9])
        with pytest.raises(SessionTruncatedError):
            read_session(tmp_path / "s")

    def test_oversized_payload_is_a_length_mismatch(self, tmp_path, toy_plant):
        write_session(pose_session(toy_plant, nframes=100), tmp_path / "s")
        blob = (tmp_path / "s" / "data.bin").read_bytes()
        (tmp_path / "s" / "data.bin").write_bytes(blob + b"\x00" * 8)
        with pytest.raises(SessionFormatError):
            read_session(tmp_path / "s")

    def test_missing_header(self, tmp_path):
        (tmp_path / "s").mkdir()
        with pytest.raises(SessionFormatError):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("field, token", [
        ("frames", "1e400"), ("frames", "-1"), ("rate_hz", "2000.7"), ("rate_hz", "0"),
    ])
    def test_bad_header_number_is_named(self, tmp_path, field, token):
        with pytest.raises(SessionFormatError, match=rf"'{field}' must be a whole number"):
            read_session(edited_session(tmp_path, field, token))

    def test_repeated_channel_names_are_named(self, tmp_path):
        with pytest.raises(SessionFormatError, match=r"'channels' repeats the names \['a'\]"):
            read_session(edited_session(tmp_path, "channels", (0, 2)))

    @given(data=st.data(), field=st.sampled_from(["frames", "rate_hz", "channels"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_header_field_is_named(self, tmp_path, data, field):
        if field == "channels":
            edit = data.draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
        else:
            edit = data.draw(bad_count_token(minimum=0 if field == "frames" else 1))
        path = edited_session(tmp_path, field, edit)
        with pytest.raises(SessionFormatError) as excinfo:
            read_session(path)
        message = str(excinfo.value).replace(str(path), "")
        assert re.search(rf"\b{field}\b", message), message

    def test_channel_count_must_match_rows(self):
        with pytest.raises(ValueError):
            Session(id="x", rate_hz=500, channel_names=("a", "b"), data=np.zeros((1, 10)))

    def test_data_of_more_than_two_dimensions_is_named(self):
        # write_session would write 3x the payload its header promises.
        with pytest.raises(ValueError, match=r"data has shape \(2, 10, 3\); a session "
                                             r"needs \(nchannels, nframes\)"):
            Session(id="x", rate_hz=500, channel_names=("mcp", "pip"),
                    data=np.zeros((2, 10, 3)))


class TestProcessSession:
    def test_oracle_session_converts_cleanly(self, toy_plant):
        session = pose_session(toy_plant, seed=2)
        out, record = process_session(session, toy_plant)
        assert record.status == "ok"
        assert record.max_residual < 1e-6
        assert record.infeasible_frames == 0
        assert out.rate_hz == 2000
        assert out.channel_names == toy_plant.actuator_names
        assert out.n_frames == session.n_frames
        assert np.all((out.data >= 0.0) & (out.data <= 1.0))

    def test_nan_burst_fails_with_reason(self, toy_plant):
        session = pose_session(toy_plant, seed=3, nframes=800)
        data = session.data.copy()
        data[0, 300:310] = np.nan
        session = Session(
            id=session.id, rate_hz=2000, channel_names=session.channel_names, data=data
        )
        out, record = process_session(session, toy_plant)
        assert out is None
        assert record.status == "failed"
        assert "non-finite" in record.failure_reason

    def test_repeated_channel_names_are_rejected(self, toy_plant):
        # Mapping by name would take the first 'mcp' and leave 'pip' at zero.
        with pytest.raises(ValueError, match=r"channel_names repeats the names \['mcp'\]"):
            process_session(
                Session(id="dup", rate_hz=500, channel_names=("mcp", "mcp"),
                        data=np.zeros((2, 50))),
                toy_plant,
            )

    def test_empty_session_is_a_precondition_error(self, toy_plant):
        empty = Session(
            id="e", rate_hz=2000, channel_names=toy_plant.joint_names,
            data=np.zeros((toy_plant.njoints, 0)),
        )
        with pytest.raises(ValueError, match="empty"):
            process_session(empty, toy_plant)

    @pytest.mark.parametrize(
        "rate_hz, nframes, minimum",
        [(500, 1, 3), (500, 2, 3), (2000, 1, 11), (2000, 2, 11), (2000, 10, 11)],
    )
    def test_too_short_session_is_a_precondition_error(self, toy_plant, rate_hz, nframes, minimum):
        short = Session(
            id="short", rate_hz=rate_hz, channel_names=toy_plant.joint_names,
            data=np.zeros((toy_plant.njoints, nframes)),
        )
        message = f"^session has {nframes} frames; at least {minimum} are needed at {rate_hz} Hz$"
        with pytest.raises(ValueError, match=message):
            process_session(short, toy_plant)

    @pytest.mark.parametrize("rate_hz, nframes", [(500, 3), (500, 10), (2000, 11)])
    def test_shortest_sessions_convert(self, toy_plant, rate_hz, nframes):
        # 11 frames at 2 kHz resample to round(2.75) = 3 solve-rate frames;
        # 10 would give round(2.5) = 2, since round() rounds half to even.
        session = Session(
            id="short", rate_hz=rate_hz, channel_names=toy_plant.joint_names,
            data=np.zeros((toy_plant.njoints, nframes)),
        )
        out, record = process_session(session, toy_plant)
        assert record.status == "ok"
        assert out.n_frames == nframes

    def test_wrong_rate_is_a_configuration_error(self, toy_plant):
        session = Session(
            id="r", rate_hz=1000, channel_names=toy_plant.joint_names,
            data=np.zeros((toy_plant.njoints, 100)),
        )
        with pytest.raises(ConfigurationError, match="expected 2000 or 500"):
            process_session(session, toy_plant)

    def test_solve_rate_session_is_inverted_as_is(self, toy_plant):
        dt = 1.0 / 500.0
        ctrl = smooth_random_controls(toy_plant.nactuators, 250, dt, 3, settle=0.25)
        poses = rollout(toy_plant, rest_state(toy_plant), ctrl, dt).q
        session = Session(
            id="s500", rate_hz=500, channel_names=toy_plant.joint_names, data=poses.T,
        )
        out, record = process_session(session, toy_plant)
        assert record.status == "ok"
        assert out.rate_hz == 500
        expected = invert_trajectory(toy_plant, session.data.T, 500).ctrl
        assert np.array_equal(out.data, expected.astype(np.float32).T)

    def test_joint_map_renames_channels(self, toy_plant):
        session = pose_session(toy_plant, seed=4, nframes=1200)
        renamed = Session(
            id=session.id, rate_hz=2000, channel_names=("alpha", "beta"),
            data=session.data,
        )
        out, record = process_session(renamed, toy_plant,
                                      joint_map={"mcp": "alpha", "pip": "beta"})
        assert record.status == "ok"
        reference, _ = process_session(session, toy_plant)
        assert np.array_equal(out.data, reference.data)

    def test_unmapped_plant_joints_default_to_zero(self, toy_plant):
        # Session only records the first joint; the second joint's
        # trajectory defaults to zero, mirroring excluded recordings.
        session = pose_session(toy_plant, seed=5, nframes=1200)
        partial = Session(
            id="p", rate_hz=2000, channel_names=("mcp",), data=session.data[:1]
        )
        out, record = process_session(partial, toy_plant)
        assert record.status == "ok"
        assert out.n_frames == partial.n_frames

    def test_missing_mapped_channel_errors(self, toy_plant):
        session = pose_session(toy_plant, seed=6, nframes=400)
        with pytest.raises(ConfigurationError, match="not_there"):
            process_session(session, toy_plant, joint_map={"mcp": "not_there"})

    def test_unconsumed_channels_error(self, toy_plant):
        session = pose_session(toy_plant, seed=7, nframes=400)
        extra = Session(
            id="x", rate_hz=2000,
            channel_names=("mcp", "pip", "mystery"),
            data=np.vstack([session.data, np.zeros((1, session.n_frames))]),
        )
        with pytest.raises(ConfigurationError, match="mystery"):
            process_session(extra, toy_plant)

    def test_unknown_map_key_errors(self, toy_plant):
        session = pose_session(toy_plant, seed=8, nframes=400)
        with pytest.raises(ConfigurationError, match="elbow"):
            process_session(session, toy_plant, joint_map={"elbow": "mcp"})

    @pytest.mark.parametrize("channels, joint_map, shared", [
        (("a",), {"mcp": "a", "pip": "a"}, "{'a': ['mcp', 'pip']}"),
        # The unmapped 'pip' reads its own name, which 'mcp' is mapped to.
        (("pip",), {"mcp": "pip"}, "{'pip': ['mcp', 'pip']}"),
    ], ids=["one_channel_two_joints", "unmapped_joint_shares_a_channel"])
    def test_one_channel_feeding_two_joints_errors(self, toy_plant, channels, joint_map, shared):
        session = pose_session(toy_plant, seed=8, nframes=400)
        one = Session(id="one", rate_hz=2000, channel_names=channels, data=session.data[:1])
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"feeds one channel to several joints: {shared}")):
            process_session(one, toy_plant, joint_map=joint_map)

    def test_joint_map_may_swap_channels(self, toy_plant):
        session = pose_session(toy_plant, seed=8, nframes=400)
        # The mcp trace is stored as 'pip' and the pip trace as 'mcp'.
        swapped = Session(id=session.id, rate_hz=2000, channel_names=("pip", "mcp"),
                          data=session.data)
        out, record = process_session(swapped, toy_plant, joint_map={"mcp": "pip", "pip": "mcp"})
        assert record.status == "ok"
        assert np.array_equal(out.data, process_session(session, toy_plant)[0].data)

    def test_frame_count_preserved_for_ragged_lengths(self, toy_plant):
        session = pose_session(toy_plant, seed=9, nframes=2002)  # not divisible by 4
        out, record = process_session(session, toy_plant)
        assert record.status == "ok"
        assert out.n_frames == 2002


class TestRunBatch:
    def _make_batch(self, tmp_path, plant, count=4, corrupt=None):
        src = tmp_path / "sessions"
        for i in range(count):
            write_session(
                pose_session(plant, seed=i, nframes=1000, session_id=f"s{i:02d}"),
                src / f"s{i:02d}",
            )
        if corrupt is not None:
            blob = (src / corrupt / "data.bin").read_bytes()
            (src / corrupt / "data.bin").write_bytes(blob[: len(blob) // 2 - 3])
        return src

    def test_failure_isolation_and_totals(self, tmp_path, toy_plant):
        src = self._make_batch(tmp_path, toy_plant, count=4, corrupt="s02")
        manifest = run_batch(src, toy_plant, tmp_path / "out", workers=1)
        assert manifest.totals == {"sessions": 4, "ok": 3, "failed": 1}
        by_id = {r.id: r for r in manifest.records}
        assert by_id["s02"].status == "failed"
        assert "SessionTruncatedError" in by_id["s02"].failure_reason
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "s00" / "data.bin").exists()
        assert not (tmp_path / "out" / "s02").exists()

    def _make_mixed_batch(self, tmp_path, plant):
        """Eight sessions: mixed lengths at 2 kHz and 500 Hz, the fewest frames
        each rate allows among them, a NaN burst in s01 and an unparsable
        header in s05."""
        src = tmp_path / "sessions"
        for i, (rate, nframes) in enumerate([(2000, 1000), (2000, 900), (500, 250), (2000, 11),
                                             (500, 3), (2000, 600), (500, 180), (2000, 1400)]):
            dt = 1.0 / rate
            ctrl = smooth_random_controls(plant.nactuators, nframes, dt, i)
            q = rollout(plant, rest_state(plant), ctrl, dt).q
            if i == 1:
                q[300:320] = np.nan
            write_session(Session(id=f"s{i:02d}", rate_hz=rate, channel_names=plant.joint_names,
                                  data=q.T), src / f"s{i:02d}")
        (src / "s05" / "session.json").write_text("{not json")
        return src

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_manifest_independent_of_worker_count(self, tmp_path, toy_plant, workers):
        # 1, 2 and 3 workers group the eight sessions as 8, 4 + 4 and 3 + 3 +
        # 2, so the NaN burst and the unparsable header sit in a group with
        # good sessions each time. Every record (apart from its wall time)
        # and every output must be the session's own conversion alone, which
        # makes them equal across worker counts and blind to the neighbours.
        src = self._make_mixed_batch(tmp_path, toy_plant)
        out = tmp_path / "out"
        start = time.perf_counter()
        manifest = run_batch(src, toy_plant, out, workers=workers)
        elapsed = time.perf_counter() - start
        assert [r.id for r in manifest.records] == [f"s{i:02d}" for i in range(8)]
        if workers == 1:
            # Each record holds its own stages and a share of its group's loop.
            assert 0.0 < sum(r.wall_time_s for r in manifest.records) <= elapsed
        assert manifest.totals == {"sessions": 8, "ok": 6, "failed": 2}
        for record in manifest.records:
            try:
                session = read_session(src / record.id)
            except SessionFormatError as exc:
                assert (record.status, record.failure_reason) == (
                    "failed", f"{type(exc).__name__}: {exc}")
                assert not (out / record.id).exists()
                continue
            alone, expected = process_session(session, toy_plant)
            strip = {"id", "wall_time_s"}
            assert ({k: v for k, v in asdict(record).items() if k not in strip}
                    == {k: v for k, v in asdict(expected).items() if k not in strip})
            if alone is None:
                assert not (out / record.id).exists()
            else:
                assert read_session(out / record.id) == alone
        assert manifest.records[1].failure_reason == "non-finite input at frame 300"

    def test_session_directory_named_like_the_manifest_fails_alone(self, tmp_path, toy_plant):
        src = tmp_path / "sessions"
        for name in ("a", "manifest.json"):
            write_session(pose_session(toy_plant, nframes=1000, session_id=name), src / name)
        out = tmp_path / "out"
        manifest = run_batch(src, toy_plant, out, workers=1)
        assert [(r.id, r.status) for r in manifest.records] == [
            ("a", "ok"), ("manifest.json", "failed")]
        assert "manifest" in manifest.records[1].failure_reason
        assert sorted(p.name for p in out.iterdir()) == ["a", "manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["totals"] == {
            "sessions": 2, "ok": 1, "failed": 1}

    def test_outputs_and_records_are_named_by_input_directory(self, tmp_path, toy_plant):
        # Header ids that name out/ itself or a directory beside it, and four
        # directories that share one id, choose no path: every session lands
        # in out/<directory name> and is recorded under that name.
        header_ids = {"dot": ".", "empty": "", "up": "../outside",
                      "dup0": "same", "dup1": "same", "dup2": "same", "dup3": "same"}
        src = tmp_path / "sessions"
        for seed, (name, header_id) in enumerate(header_ids.items()):
            write_session(pose_session(toy_plant, seed=seed, nframes=1000,
                                       session_id=header_id), src / name)
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep.txt").write_text("sibling")

        manifests, payloads = [], []
        for run, workers in enumerate([1, 2, 2, 2]):
            out = tmp_path / f"out{run}"
            out.mkdir()
            (out / "keep.txt").write_text("sentinel")
            manifest = run_batch(src, toy_plant, out, workers=workers)
            assert manifest.totals == {"sessions": 7, "ok": 7, "failed": 0}
            assert [r.id for r in manifest.records] == sorted(header_ids)
            assert sorted(p.name for p in out.iterdir()) == sorted(
                [*header_ids, "keep.txt", "manifest.json"])
            assert (out / "keep.txt").read_text() == "sentinel"
            for name, header_id in header_ids.items():
                assert read_session(out / name).id == header_id
            doc = json.loads((out / "manifest.json").read_text())
            for record in doc["records"]:
                del record["wall_time_s"]
            manifests.append(doc)
            payloads.append({name: (out / name / "data.bin").read_bytes() for name in header_ids})
        assert [p.name for p in outside.iterdir()] == ["keep.txt"]
        assert (outside / "keep.txt").read_text() == "sibling"
        assert all(doc == manifests[0] for doc in manifests[1:])
        assert all(blobs == payloads[0] for blobs in payloads[1:])

    @pytest.mark.parametrize("joint_map, message", [
        ({"elbow": "mcp"}, "unknown joints: ['elbow']"),
        ({"mcp": "a", "pip": "a"}, "several joints: {'a': ['mcp', 'pip']}"),
        ({"mcp": "pip"}, "several joints: {'pip': ['mcp', 'pip']}"),
    ], ids=["unknown_joint", "one_channel_two_joints", "unmapped_joint_shares_a_channel"])
    def test_bad_options_are_rejected_before_any_session_is_read(
        self, tmp_path, toy_plant, monkeypatch, joint_map, message
    ):
        src = self._make_batch(tmp_path, toy_plant, count=3)
        read = []
        monkeypatch.setattr("myoctl.pipeline.read_session", read.append)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run_batch(src, toy_plant, tmp_path / "out", workers=1, joint_map=joint_map)
        assert read == []
        assert not (tmp_path / "out").exists()

    def test_failed_write_leaves_no_temporary_directory(self, tmp_path, toy_plant, monkeypatch):
        src = tmp_path / "sessions"
        write_session(pose_session(toy_plant, nframes=1000), src / "a")
        real = myoctl.pipeline._write_atomic

        def disk_full(path, payload):
            if Path(path).name == "data.bin":
                raise OSError(28, "No space left on device")
            real(path, payload)

        monkeypatch.setattr(myoctl.pipeline, "_write_atomic", disk_full)
        out = tmp_path / "out"
        manifest = run_batch(src, toy_plant, out, workers=1)
        assert [(r.id, r.status) for r in manifest.records] == [("a", "failed")]
        assert manifest.records[0].failure_reason.startswith("OSError: [Errno 28]")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_failed_rerun_keeps_the_previous_output(self, tmp_path, toy_plant, monkeypatch):
        src = tmp_path / "sessions"
        for seed, name in enumerate(("a", "b")):
            write_session(pose_session(toy_plant, seed=seed, nframes=1000), src / name)
        out = tmp_path / "out"
        run_batch(src, toy_plant, out, workers=1)
        before = {p.name: p.read_bytes() for p in (out / "a").iterdir()}
        real = myoctl.pipeline.os.replace

        def install_fails(source, target):
            if Path(target) == out / "a" and Path(source).name.startswith(".tmp-"):
                raise OSError(5, "Input/output error")
            real(source, target)

        monkeypatch.setattr(myoctl.pipeline.os, "replace", install_fails)
        manifest = run_batch(src, toy_plant, out, workers=1)
        assert [(r.id, r.status) for r in manifest.records] == [("a", "failed"), ("b", "ok")]
        assert manifest.records[0].failure_reason.startswith("OSError: [Errno 5]")
        assert {p.name: p.read_bytes() for p in (out / "a").iterdir()} == before
        assert sorted(p.name for p in out.iterdir()) == ["a", "b", "manifest.json"]

    def test_failure_reason_names_no_header_id(self, tmp_path, toy_plant):
        # The directory names the session in a batch; its header id is 's2'.
        session = pose_session(toy_plant, nframes=8, session_id="s2")
        write_session(session, tmp_path / "sessions" / "r")
        manifest = run_batch(tmp_path / "sessions", toy_plant, tmp_path / "out")
        assert [(r.id, r.failure_reason) for r in manifest.records] == [
            ("r", "ValueError: session has 8 frames; at least 11 are needed at 2000 Hz")]

    def test_empty_directory_is_an_error(self, tmp_path, toy_plant):
        (tmp_path / "nothing").mkdir()
        with pytest.raises(ValueError, match="no sessions"):
            run_batch(tmp_path / "nothing", toy_plant, tmp_path / "out")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_1_is_rejected_before_any_session_is_read(
        self, tmp_path, toy_plant, monkeypatch, workers
    ):
        src = self._make_batch(tmp_path, toy_plant, count=3)
        read = []
        monkeypatch.setattr("myoctl.pipeline.read_session", read.append)
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_batch(src, toy_plant, tmp_path / "out", workers=workers)
        assert read == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink"])
    def test_output_directory_that_is_the_input_is_refused(
        self, tmp_path, toy_plant, monkeypatch, spelling
    ):
        # Each output would replace the pose session it came from.
        src = self._make_batch(tmp_path, toy_plant, count=2)
        out = {"same": src, "dotdot": src / "s00" / "..", "symlink": tmp_path / "link"}[spelling]
        if spelling == "symlink":
            out.symlink_to(src, target_is_directory=True)
        before = {p: p.read_bytes() for p in src.rglob("*") if p.is_file()}
        read = []
        monkeypatch.setattr("myoctl.pipeline.read_session", read.append)
        message = f"out_dir {out} resolves to input_dir {src}; "
        with pytest.raises(ValueError, match=re.escape(message)):
            run_batch(src, toy_plant, out, workers=1)
        assert read == []
        assert {p: p.read_bytes() for p in src.rglob("*") if p.is_file()} == before
        assert not (src / "manifest.json").exists()


class TestManifest:
    def test_totals_equal_sums(self):
        records = (
            SessionRecord("a", "ok", None, 10, 0, 1e-9, 0.1),
            SessionRecord("b", "failed", "boom", 10, 3, 0.5, 0.2),
            SessionRecord("c", "ok", None, 10, 0, 2e-9, 0.3),
        )
        manifest = Manifest(records)
        assert manifest.totals == {"sessions": 3, "ok": 2, "failed": 1}
        doc = manifest.as_dict()
        assert len(doc["records"]) == 3
        assert doc["totals"]["failed"] == 1
