import json
import sys
import threading
from pathlib import Path

import pytest

from bee.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_STALLED, main
from bee.model import Phase, RunState, to_json
from bee.storage import CheckpointStore, StatusWriter, append_record
from conftest import (commit_record, counting_hashlib, make_app, make_hardware, make_pool,
                      make_system, run_state)


@pytest.fixture
def configs(tmp_path):
    def write(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def build(pool=None, app=None, hardware=None):
        pool = pool or make_pool(make_system("alpha", time_slot=100.0))
        app = app or make_app(work_total=30.0, process_count=2)
        hardware = hardware or make_hardware()
        return ["--pool", write("pool", to_json(pool)),
                "--app", write("app", to_json(app)),
                "--uconf", write("uconf", to_json(hardware))]

    build.tmp_path = tmp_path
    return build


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1]) if out else {}


def data_of(checkpoint: str | Path) -> Path:
    """The data.bin that holds the bytes of checkpoint <store>/<run id>/<seq>."""
    checkpoint = Path(checkpoint)
    volume = commit_record(checkpoint.parent, int(checkpoint.name))["volume"]
    return checkpoint.parent.parent / "volumes" / volume / "data.bin"


class TestValidateCommand:
    def test_valid_configs_exit_zero(self, configs):
        assert main(["validate", *configs()]) == EXIT_OK

    def test_violations_exit_config(self, configs, capsys):
        bad = make_pool()  # empty pool
        code, doc = run_json(capsys, ["validate", *configs(pool=bad), "--json"])
        assert code == EXIT_CONFIG
        assert doc["violations"]

    def test_missing_pool_file_exits_config(self, configs, tmp_path):
        argv = configs()
        argv[1] = str(tmp_path / "missing.json")
        assert main(["validate", *argv]) == EXIT_CONFIG

    def test_unknown_flag_exits_config(self, configs):
        with pytest.raises(SystemExit) as err:
            main(["validate", *configs(), "--frobnicate"])
        assert err.value.code == EXIT_CONFIG


class TestRunCommand:
    def test_one_slot_run_exits_zero(self, configs, capsys):
        store = str(configs.tmp_path / "store")
        code, doc = run_json(capsys, ["run", *configs(), "--store", store,
                                      "--seed", "3", "--json"])
        assert code == EXIT_OK
        assert doc["outcome"] == "completed"
        assert len(doc["history"]) == 1

    def test_pool_exhausting_run_exits_stalled_with_path(self, configs, capsys):
        app = make_app(work_total=100_000.0, process_count=2)
        store = str(configs.tmp_path / "store")
        code, doc = run_json(capsys, ["run", *configs(app=app), "--store", store,
                                      "--seed", "3", "--json"])
        assert code == EXIT_STALLED
        assert doc["checkpoint_path"]
        assert (configs.tmp_path / "store").exists()

    def test_identical_seed_identical_json(self, configs, capsys):
        argv = ["run", *configs(), "--seed", "11", "--json"]
        code1, doc1 = run_json(capsys, argv + ["--store", str(configs.tmp_path / "s1")])
        code2, doc2 = run_json(capsys, argv + ["--store", str(configs.tmp_path / "s2")])
        assert (code1, doc1) == (code2, doc2)

    def test_calibration_config_file(self, configs, capsys):
        calib = configs.tmp_path / "calib.json"
        calib.write_text(json.dumps({"poll_interval": 0.5, "nfs_cap": 122.0}))
        store = str(configs.tmp_path / "store")
        code, doc = run_json(capsys, ["run", *configs(), "--store", store,
                                      "--sim-config", str(calib), "--json"])
        assert code == EXIT_OK

    def test_damaged_store_exits_failed_with_one_line(self, configs, capsys):
        store = configs.tmp_path / "store"
        argv = ["run", *configs(), "--store", str(store)]
        assert main(argv) == EXIT_OK
        run_id = next(p.name for p in store.iterdir() if p.name.startswith("run-"))
        (store / "volumes" / f"{run_id}-data" / "data.bin").unlink()
        capsys.readouterr()
        assert main(argv) == EXIT_FAILED
        assert capsys.readouterr().err == f"no such volume: {run_id}-data\n"

    def test_equal_seeds_give_equal_outputs_in_a_reused_store(self, configs, capsys):
        # the input volume is the run's own: an earlier seed's input in the
        # same store is not taken for this seed's
        argv = ["run", *configs(), "--json"]
        code, fresh = run_json(capsys, [*argv, "--store", str(configs.tmp_path / "fresh"),
                                        "--seed", "1"])
        assert code == EXIT_OK
        reused = str(configs.tmp_path / "reused")
        assert run_json(capsys, [*argv, "--store", reused, "--seed", "0"])[0] == EXIT_OK
        code, again = run_json(capsys, [*argv, "--store", reused, "--seed", "1"])
        assert code == EXIT_OK
        assert again["output_volume"]["content_digest"] == \
            fresh["output_volume"]["content_digest"]

    def test_run_again_after_a_stall_matches_a_fresh_store(self, configs, capsys):
        # the stalled run's checkpoints must not become the next run's input
        app = make_app(work_total=300.0, process_count=2)
        wide = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(4)))
        store = str(configs.tmp_path / "store")
        code, stalled = run_json(capsys, ["run", *configs(app=app), "--store", store,
                                          "--json"])
        assert code == EXIT_STALLED
        code, again = run_json(capsys, ["run", *configs(app=app, pool=wide), "--store",
                                        store, "--json"])
        assert code == EXIT_OK and again["run_id"] == stalled["run_id"]
        code, fresh = run_json(capsys, ["run", *configs(app=app, pool=wide), "--store",
                                        str(configs.tmp_path / "fresh"), "--json"])
        assert code == EXIT_OK
        assert again["output_volume"]["content_digest"] == \
            fresh["output_volume"]["content_digest"]

    def test_run_again_after_a_completed_run_matches_a_fresh_store(self, configs, capsys):
        # the completed run's output, appended to its input, must not become
        # the next run's input
        argv = ["run", *configs(), "--seed", "1", "--json"]
        store = str(configs.tmp_path / "store")
        digests = []
        for target in (store, store, str(configs.tmp_path / "fresh")):
            code, doc = run_json(capsys, [*argv, "--store", target])
            assert code == EXIT_OK
            digests.append(doc["output_volume"]["content_digest"])
        assert digests[0] == digests[1] == digests[2]

    @pytest.mark.parametrize("first, then, why", [
        # the smaller input is the stored one's prefix, but its output does
        # not extend the stored output
        ("4096", "1024", "does not begin with its"),
        # the larger input's bytes are not the stored volume's first bytes
        ("1024", "4096", "are not the run's input"),
    ])
    def test_other_input_size_in_a_reused_store_exits_failed_with_one_line(
            self, configs, capsys, first, then, why):
        def argv(pool=None):
            return ["run", *configs(pool=pool), "--seed", "1", "--json", "--store", store]

        store = str(configs.tmp_path / "store")
        code, done = run_json(capsys, [*argv(), "--input-size", first])
        assert code == EXIT_OK and len(done["history"]) == 1
        capsys.readouterr()
        # on these short slots, a run that got as far as a slot would checkpoint
        short = make_pool(*(make_system(f"s{i}", time_slot=10.0) for i in range(4)))
        assert main([*argv(short), "--input-size", then]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and why in err
        # refused before any slot: nothing was checkpointed
        assert CheckpointStore(store).latest(done["run_id"]) is None
        assert run_state(Path(store), done["run_id"]).phase is Phase.FAILED
        # the volume keeps what the first run stored
        code, again = run_json(capsys, [*argv(), "--input-size", first])
        assert code == EXIT_OK and again == done

    def test_run_that_ends_without_a_result_reports_failed(self, configs, capsys):
        store = configs.tmp_path / "store"
        argv = ["run", *configs(), "--store", str(store)]
        assert main(argv) == EXIT_OK
        run_id = next(p.name for p in store.iterdir() if p.name.startswith("run-"))
        (store / "volumes" / f"{run_id}-data" / "data.bin").unlink()
        assert main(argv) == EXIT_FAILED
        capsys.readouterr()
        assert main(["status", run_id, "--store", str(store)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"run {run_id}: phase failed,")
        assert "result:" not in out

    def test_negative_input_size_exits_config_with_one_line(self, configs, capsys):
        store = configs.tmp_path / "store"
        with pytest.raises(SystemExit) as done:
            main(["run", *configs(), "--store", str(store), "--input-size", "-5"])
        assert done.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "argument --input-size:" in err
        assert not store.exists()

    def test_bad_calibration_key_exits_config(self, configs):
        calib = configs.tmp_path / "calib.json"
        calib.write_text(json.dumps({"warp_factor": 9}))
        store = str(configs.tmp_path / "store")
        assert main(["run", *configs(), "--store", store,
                     "--sim-config", str(calib)]) == EXIT_CONFIG


class TestResumeCommand:
    def _stall(self, configs, capsys, work=350.0):
        app = make_app(work_total=work, process_count=2)
        store = str(configs.tmp_path / "store")
        code, doc = run_json(capsys, ["run", *configs(app=app), "--store", store,
                                      "--seed", "3", "--json"])
        assert code == EXIT_STALLED
        return app, store, doc["checkpoint_path"]

    def test_resume_completes_and_matches_uninterrupted(self, configs, capsys):
        app, store, ckpt = self._stall(configs, capsys)
        big_pool = make_pool(make_system("alpha", time_slot=100.0),
                             make_system("omega", time_slot=1000.0))
        code, doc = run_json(capsys, ["resume", *configs(app=app, pool=big_pool),
                                      "--store", store, "--seed", "3", "--json",
                                      "--checkpoint", ckpt])
        assert code == EXIT_OK

        straight_store = str(configs.tmp_path / "straight")
        code2, doc2 = run_json(capsys, ["run", *configs(app=app, pool=big_pool),
                                        "--store", straight_store, "--seed", "3",
                                        "--json"])
        assert code2 == EXIT_OK
        assert doc["output_volume"]["content_digest"] == \
            doc2["output_volume"]["content_digest"]

    def test_resume_without_checkpoint_continues_from_latest(self, configs, capsys):
        app, store, ckpt = self._stall(configs, capsys)
        big_pool = make_pool(make_system("alpha", time_slot=100.0),
                             make_system("omega", time_slot=1000.0))
        code, doc = run_json(capsys, ["resume", *configs(app=app, pool=big_pool),
                                      "--store", store, "--seed", "3", "--json"])
        assert code == EXIT_OK
        assert doc["run_id"] == Path(ckpt).parent.name
        code2, doc2 = run_json(capsys, ["run", *configs(app=app, pool=big_pool),
                                        "--store", str(configs.tmp_path / "straight"),
                                        "--seed", "3", "--json"])
        assert code2 == EXIT_OK
        assert doc["output_volume"]["content_digest"] == \
            doc2["output_volume"]["content_digest"]

    def test_resume_without_checkpoint_of_a_run_never_started_exits_config(self, configs,
                                                                          capsys):
        app, store, _ = self._stall(configs, capsys)
        code = main(["resume", *configs(app=app), "--store", store, "--seed", "4"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "`bee run`" in err

    @pytest.mark.parametrize("name", ["\u00b2", "\u0663", "x"])
    def test_checkpoint_name_that_is_not_a_sequence_number_exits_config(self, configs,
                                                                       capsys, name):
        app, store, ckpt = self._stall(configs, capsys)
        code = main(["resume", *configs(app=app), "--store", store, "--seed", "3",
                     "--checkpoint", str(Path(ckpt).parent / name)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no checkpoint is committed at" in err

    def test_tampered_volume_exits_failed(self, configs, capsys):
        app, store, ckpt = self._stall(configs, capsys)
        volume = data_of(ckpt)
        volume.write_bytes(b"tampered" + volume.read_bytes())
        code = main(["resume", *configs(app=app), "--store", store,
                     "--checkpoint", ckpt])
        assert code == EXIT_FAILED

    def test_tampered_checkpoint_creates_no_volume(self, configs, capsys):
        app, _, ckpt = self._stall(configs, capsys)
        volume = data_of(ckpt)
        volume.write_bytes(b"tampered" + volume.read_bytes())
        fresh = configs.tmp_path / "fresh"
        code = main(["resume", *configs(app=app), "--store", str(fresh),
                     "--checkpoint", ckpt])
        assert code == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("checkpoint corrupt") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (fresh / "volumes").exists()

    @pytest.mark.parametrize("damage", ["flipped", "short"])
    @pytest.mark.parametrize("seq", [1, 2, 3])
    def test_damaged_segment_fails_whichever_checkpoint_is_named(self, configs, capsys,
                                                                 damage, seq):
        from pathlib import Path

        app = make_app(work_total=1000.0, process_count=2)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3)))
        store = configs.tmp_path / "store"
        code, doc = run_json(capsys, ["run", *configs(app=app, pool=pool),
                                      "--store", str(store), "--json"])
        assert code == EXIT_STALLED
        run_dir = Path(doc["checkpoint_path"]).parent
        assert sorted(p.name for p in run_dir.iterdir()) == ["log"]
        # every checkpoint's bytes are the run's volume's data.bin
        data = data_of(doc["checkpoint_path"])
        content = bytearray(data.read_bytes())
        if damage == "flipped":  # a byte that all three checkpoints cover
            content[100] ^= 0x01
        else:  # shorter than the first checkpoint
            del content[100:]
        data.write_bytes(bytes(content))
        code = main(["resume", *configs(app=app), "--store", str(store),
                     "--checkpoint", str(run_dir / str(seq))])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED
        assert err.startswith("checkpoint corrupt") and err.count("\n") == 1

    @pytest.mark.parametrize("seq", [1, 2, 3])
    def test_resume_from_any_checkpoint_path_that_latest_can_name(self, configs, capsys,
                                                                  seq):
        from pathlib import Path

        app = make_app(work_total=1000.0, process_count=2)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3)))
        store = configs.tmp_path / "store"
        code, doc = run_json(capsys, ["run", *configs(app=app, pool=pool),
                                      "--store", str(store), "--json"])
        assert code == EXIT_STALLED
        run_dir = Path(doc["checkpoint_path"]).parent
        assert doc["checkpoint_path"] == str(run_dir / "3")
        # checkpoints are records: the run directory holds its log alone
        assert sorted(p.name for p in run_dir.iterdir()) == ["log"]
        more = make_pool(*(make_system(f"b{i}", time_slot=100.0) for i in range(5)))
        code, resumed = run_json(capsys, ["resume", *configs(app=app, pool=more),
                                          "--store", str(store), "--json",
                                          "--checkpoint", str(run_dir / str(seq))])
        assert code == EXIT_OK
        one_slot = make_pool(make_system("omega", time_slot=10_000.0))
        code, straight = run_json(capsys, ["run", *configs(app=app, pool=one_slot),
                                           "--store", str(configs.tmp_path / "straight"),
                                           "--json"])
        assert code == EXIT_OK
        assert resumed["output_volume"]["content_digest"] == \
            straight["output_volume"]["content_digest"]

    def test_resume_from_an_earlier_checkpoint_keeps_every_latest_verifying(
            self, configs, capsys, monkeypatch):
        from pathlib import Path

        from bee.orchestrator import CheckpointStore

        app = make_app(work_total=1000.0, process_count=2)
        pool = make_pool(*(make_system(f"s{i}", time_slot=100.0) for i in range(3)))
        store = configs.tmp_path / "store"
        code, doc = run_json(capsys, ["run", *configs(app=app, pool=pool),
                                      "--store", str(store), "--json"])
        assert code == EXIT_STALLED
        run_dir = Path(doc["checkpoint_path"]).parent
        assert doc["checkpoint_path"] == str(run_dir / "3")

        seen = []
        real_save = CheckpointStore.save

        def save_then_check(cstore, ckpt, content, volume_id):
            d = real_save(cstore, ckpt, content, volume_id)
            reader = CheckpointStore(store)
            latest = reader.latest(ckpt.run_id)
            seen.append((latest.name, reader.verify(latest)))
            return d

        monkeypatch.setattr(CheckpointStore, "save", save_then_check)
        more = make_pool(*(make_system(f"b{i}", time_slot=100.0) for i in range(5)))
        code, resumed = run_json(capsys, ["resume", *configs(app=app, pool=more),
                                          "--store", str(store), "--json",
                                          "--checkpoint", str(run_dir / "1")])
        assert code == EXIT_OK
        assert seen == [("2", True), ("3", True), ("4", True), ("5", True)]
        reader = CheckpointStore(store)
        for seq in range(1, 6):
            assert commit_record(run_dir, seq)["volume"] == f"{run_dir.name}-data"
            assert reader.verify(run_dir / str(seq))

        one_slot = make_pool(make_system("omega", time_slot=10_000.0))
        code, straight = run_json(capsys, ["run", *configs(app=app, pool=one_slot),
                                           "--store", str(configs.tmp_path / "straight"),
                                           "--json"])
        assert code == EXIT_OK
        assert resumed["output_volume"]["content_digest"] == \
            straight["output_volume"]["content_digest"]

    @pytest.mark.parametrize("store_name", ["store", "fresh"])
    def test_resume_hashes_the_checkpoint_once(self, configs, capsys, monkeypatch,
                                               store_name):
        import bee.storage

        app, _, ckpt = self._stall(configs, capsys)
        size = data_of(ckpt).stat().st_size
        fed = []
        monkeypatch.setattr(bee.storage, "hashlib", counting_hashlib(fed))
        big_pool = make_pool(make_system("omega", time_slot=1000.0))
        code, doc = run_json(capsys, ["resume", *configs(app=app, pool=big_pool),
                                      "--store", str(configs.tmp_path / store_name),
                                      "--seed", "3", "--json", "--checkpoint", ckpt])
        assert code == EXIT_OK
        # the checkpoint in full once, then only the bytes the app appended
        assert [n for _, n in fed if n >= size] == [size]
        assert sum(n for _, n in fed) <= doc["output_volume"]["byte_size"] + 64

    def test_resume_completed_checkpoint_immediate_zero(self, configs, capsys, tmp_path):
        import hashlib

        from bee.workload import volume_content

        app = make_app(work_total=20.0, process_count=2)
        content = volume_content(app.name, b"", 20.0)
        elsewhere = tmp_path / "elsewhere"  # a checkpoint in another store
        run_dir, data = elsewhere / "done", elsewhere / "volumes" / "done-data" / "data.bin"
        run_dir.mkdir(parents=True)
        data.parent.mkdir(parents=True)
        data.write_bytes(content)
        manifest = {"run_id": "done", "seq": 1, "progress": 20.0,
                    "digest": hashlib.sha256(content).hexdigest(),
                    "origin_system": "alpha", "created_at": 1.0,
                    "volume": "done-data", "length": len(content)}
        append_record(run_dir / "log", {"commit": manifest})
        code, doc = run_json(capsys, ["resume", *configs(app=app),
                                      "--store", str(tmp_path / "store"), "--json",
                                      "--checkpoint", str(run_dir / "1")])
        assert code == EXIT_OK
        assert doc["history"] == []
        # the checkpoint is the output, and the data volume holds it
        assert doc["output_volume"]["content_digest"] == manifest["digest"]
        assert (tmp_path / "store" / "volumes" / "done-data" / "data.bin").read_bytes() == \
            content


    def test_manifest_run_id_outside_the_store_exits_config(self, configs, capsys):
        from pathlib import Path

        store = configs.tmp_path / "store" / "inner"
        app = make_app(work_total=350.0, process_count=2)
        code, doc = run_json(capsys, ["run", *configs(app=app), "--store", str(store),
                                      "--seed", "3", "--json"])
        assert code == EXIT_STALLED
        ckpt = Path(doc["checkpoint_path"])
        append_record(ckpt.parent / "log",
                      {"commit": commit_record(ckpt.parent, int(ckpt.name))
                       | {"run_id": "../../escaped"}})

        def outside_store():
            return {p for p in configs.tmp_path.rglob("*")
                    if configs.tmp_path / "store" not in (p, *p.parents)}

        before = outside_store()
        code = main(["resume", *configs(app=app), "--store", str(store), "--seed", "3",
                     "--checkpoint", doc["checkpoint_path"]])
        assert code == EXIT_CONFIG
        assert "commit.run_id" in capsys.readouterr().err
        assert outside_store() == before


    def test_commit_volume_outside_the_store_exits_config(self, configs, capsys,
                                                          monkeypatch):
        import builtins

        import bee.storage

        store = configs.tmp_path / "store" / "inner"
        argv = configs(app=make_app(work_total=350.0, process_count=2))
        code, doc = run_json(capsys, ["run", *argv, "--store", str(store), "--seed", "3",
                                      "--json"])
        assert code == EXIT_STALLED
        ckpt = Path(doc["checkpoint_path"])
        commit = commit_record(ckpt.parent, int(ckpt.name))
        # a data.bin of the right bytes, two levels above the store's volumes
        escaped = configs.tmp_path / "store" / "escaped" / "data.bin"
        escaped.parent.mkdir()
        escaped.write_bytes(data_of(ckpt).read_bytes())
        append_record(ckpt.parent / "log", {"commit": commit | {"volume": "../../escaped"}})

        opened = []

        def spy(path, *args, **kwargs):
            opened.append(Path(path).resolve())
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(bee.storage, "open", spy, raising=False)
        before = {p for p in configs.tmp_path.rglob("*") if store not in (p, *p.parents)}
        code = main(["resume", *argv, "--store", str(store), "--seed", "3",
                     "--checkpoint", doc["checkpoint_path"]])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "commit.volume" in err
        assert {p for p in configs.tmp_path.rglob("*")
                if store not in (p, *p.parents)} == before
        assert all(store in path.parents for path in opened)


class TestEnvOverrides:
    def test_flags_come_from_environment(self, configs, capsys, monkeypatch):
        argv = configs()
        monkeypatch.setenv("BEE_POOL", argv[1])
        monkeypatch.setenv("BEE_APP", argv[3])
        monkeypatch.setenv("BEE_UCONF", argv[5])
        monkeypatch.setenv("BEE_STORE", str(configs.tmp_path / "envstore"))
        monkeypatch.setenv("BEE_JSON", "1")
        monkeypatch.setenv("BEE_SEED", "21")
        code, doc = run_json(capsys, ["run"])
        assert code == EXIT_OK
        assert doc["outcome"] == "completed"
        assert (configs.tmp_path / "envstore").exists()

    @pytest.mark.parametrize("command,name,value,flag", [
        ("run", "SEED", "x", "--seed"),
        ("run", "SEED", "", "--seed"),
        ("run", "BACKEND", "nope", "--backend"),
        ("resume", "BACKEND", "local ", "--backend"),
        ("scaling", "SEED", "1.5", "--seed"),
        ("scaling", "BACKEND", "nope", "--backend"),
    ])
    def test_malformed_default_exits_config_with_one_line_and_writes_nothing(
            self, configs, capsys, monkeypatch, command, name, value, flag):
        argv = configs()
        store = configs.tmp_path / "store"
        monkeypatch.setenv(f"BEE_{name}", value)
        monkeypatch.setenv("BEE_STORE", str(store))
        before = set(configs.tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as done:
            main([command, *(argv[2:4] if command == "scaling" else argv)])
        assert done.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"argument {flag}:" in err
        assert set(configs.tmp_path.rglob("*")) == before

    def test_a_malformed_default_of_a_flag_a_command_lacks_is_ignored(self, tmp_path, capsys,
                                                                      monkeypatch):
        monkeypatch.setenv("BEE_SEED", "x")  # `bee status` has no --seed
        assert main(["status", "foo", "--store", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "no such run: foo\n"


class TestStatusCommand:
    def test_status_reads_whole_state_while_a_run_rewrites_it(self, tmp_path, capsys):
        writer = StatusWriter(tmp_path, "r")
        writer.state(RunState())
        stop = threading.Event()

        def rewrite():
            slots = 0
            while not stop.is_set():
                slots += 1
                writer.state(RunState(phase=Phase.RUNNING, slots_consumed=slots))

        thread = threading.Thread(target=rewrite)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside each write and read
        thread.start()
        try:
            codes = [main(["status", "r", "--store", str(tmp_path)]) for _ in range(300)]
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        capsys.readouterr()
        assert codes == [EXIT_OK] * len(codes)

    def test_status_reads_persisted_snapshot(self, configs, capsys):
        store = str(configs.tmp_path / "store")
        code, doc = run_json(capsys, ["run", *configs(), "--store", store, "--json"])
        run_id = doc["run_id"]
        code, status = run_json(capsys, ["status", run_id, "--store", store, "--json"])
        assert code == EXIT_OK
        assert status["state"]["phase"] == "complete"
        assert status["result"]["outcome"] == "completed"

    def test_unknown_run_exits_config(self, tmp_path):
        assert main(["status", "nope", "--store", str(tmp_path)]) == EXIT_CONFIG

    def test_run_id_outside_the_store_exits_config(self, tmp_path, capsys):
        (tmp_path / "escaped").mkdir()
        append_record(tmp_path / "escaped" / "log", {"state": to_json(RunState())})
        assert main(["status", "../escaped", "--store", str(tmp_path / "store")]) == \
            EXIT_CONFIG
        assert "run_id" in capsys.readouterr().err

    @pytest.mark.parametrize("torn", ["state", "result"])
    def test_torn_last_record_is_skipped(self, tmp_path, capsys, torn):
        # a torn last line is where a killed writer stopped: status reads the
        # records before it
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        append_record(run_dir / "log", {"state": to_json(RunState())})
        with open(run_dir / "log", "a", encoding="utf-8") as fh:
            fh.write(f'{{"{torn}":{{"phase":')
        assert main(["status", "r", "--store", str(tmp_path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == \
            {"run_id": "r", "state": to_json(RunState())}

    def test_garbage_lines_in_a_run_log_do_not_hide_the_next_state(self, tmp_path, capsys):
        # a power-loss tail that holds a newline: the next append cuts it off
        writer = StatusWriter(tmp_path, "r")
        writer.state(RunState())
        with open(tmp_path / "r" / "log", "ab") as fh:
            fh.write(b"garbage\n")
        running = RunState(phase=Phase.RUNNING, slots_consumed=1)
        writer.state(running)
        assert main(["status", "r", "--store", str(tmp_path), "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"run_id": "r", "state": to_json(running)}

    @pytest.mark.parametrize("torn", ["state.json", "result.json"])
    def test_torn_run_file_exits_config(self, tmp_path, capsys, torn):
        # the log's state and result records replace the files of these
        # names; a whole record whose document is malformed exits 64
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        append_record(run_dir / "log", {"state": to_json(RunState())})
        append_record(run_dir / "log", {torn.removesuffix(".json"): {"phase": "torn"}})
        assert main(["status", "r", "--store", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and str(run_dir / "log") in err[0]
        assert "Traceback" not in captured.err


class TestTopoCommand:
    def test_single_multicast_send_costs_n_minus_one(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([{"src": 0, "dst": 5, "bytes": 10}]))
        code, doc = run_json(capsys, ["topo", "multicast", "8", str(trace), "--json"])
        assert code == EXIT_OK
        assert doc["messages_on_wire"] == 7

    def test_star_all_pairs_center_relay(self, tmp_path, capsys):
        n = 8
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(
            [[s, d, 1] for s in range(n) for d in range(n) if s != d]))
        code, doc = run_json(capsys, ["topo", "p2p_star", "8", str(trace), "--json"])
        assert code == EXIT_OK
        assert sum(v for k, v in doc["relay_load"].items() if k != "0") == 0
        # center relays exactly once per ordered pair of non-center nodes
        assert doc["relay_load"]["0"] == (n - 1) * (n - 2)

    def test_malformed_trace_exits_config(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([{"from": 0}]))
        assert main(["topo", "p2p_star", "4", str(trace)]) == EXIT_CONFIG

    @pytest.mark.parametrize("entry", [{"src": True, "dst": 1}, [0, 1.5], {"src": 0, "dst": "3"},
                                       [0, 1, 2.0], {"src": 0, "dst": 1, "weight": 2}])
    def test_non_integer_field_exits_config(self, tmp_path, capsys, entry):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([[0, 1, 1], entry]))
        assert main(["topo", "p2p_star", "4", str(trace)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: trace[1]") and err.count("\n") == 1

    def test_out_of_range_endpoint_exits_config(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([[0, 9, 1]]))
        assert main(["topo", "p2p_star", "4", str(trace)]) == EXIT_CONFIG


class TestIobenchCommand:
    @pytest.mark.parametrize("flag, value", [
        ("--max-nodes", "0"), ("--max-nodes", "-3"), ("--max-nodes", "2.5"),
        ("--native-read", "-1"), ("--native-read", "0"), ("--native-write", "nan"),
        ("--nfs-cap", "-125"), ("--nfs-cap", "fast"), ("--nfs-cap", "inf"),
    ])
    def test_out_of_range_number_exits_config_with_one_line(self, capsys, flag, value):
        with pytest.raises(SystemExit) as done:
            main(["iobench", f"{flag}={value}"])
        assert done.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"argument {flag}:" in captured.err

    def test_nfs_band_holds_through_32_nodes(self, capsys):
        code, doc = run_json(capsys, ["iobench", "--solution", "data_image_nfs",
                                      "--max-nodes", "32", "--json"])
        assert code == EXIT_OK
        for row in doc["rows"]:
            if row["n_nodes"] >= 2:
                assert 120.0 <= row["read_worker_aggregate_mbps"] <= 130.0
                assert 120.0 <= row["write_worker_aggregate_mbps"] <= 130.0


class TestScalingCommand:
    def test_rows_and_speedups(self, tmp_path, capsys):
        app_path = tmp_path / "app.json"
        app_path.write_text(json.dumps(to_json(make_app(work_total=500.0))))
        code, doc = run_json(capsys, ["scaling", "--app", str(app_path),
                                      "--process-counts", "1,4,16", "--json"])
        assert code == EXIT_OK
        assert [r["processes"] for r in doc["rows"]] == [1, 4, 16]
        assert doc["rows"][0]["speedup"] == pytest.approx(1.0)
