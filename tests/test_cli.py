import json

import pytest

from bee.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_STALLED, main
from bee.model import (
    RunState,
    app_to_dict,
    canonical_json,
    hardware_to_dict,
    pool_to_dict,
    run_state_to_dict,
)
from conftest import make_app, make_hardware, make_pool, make_system


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
        return ["--pool", write("pool", pool_to_dict(pool)),
                "--app", write("app", app_to_dict(app)),
                "--uconf", write("uconf", hardware_to_dict(hardware))]

    build.tmp_path = tmp_path
    return build


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1]) if out else {}


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

    def test_tampered_volume_exits_failed(self, configs, capsys):
        from pathlib import Path

        app, store, ckpt = self._stall(configs, capsys)
        volume = Path(ckpt) / "volume.bin"
        volume.write_bytes(b"tampered" + volume.read_bytes())
        code = main(["resume", *configs(app=app), "--store", store,
                     "--checkpoint", ckpt])
        assert code == EXIT_FAILED

    def test_resume_completed_checkpoint_immediate_zero(self, configs, capsys, tmp_path):
        import hashlib

        from bee.workload import volume_content

        app = make_app(work_total=20.0, process_count=2)
        content = volume_content(app.name, b"", 20.0)
        ckpt_dir = tmp_path / "done-ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / "volume.bin").write_bytes(content)
        manifest = {"run_id": "done", "seq": 1, "progress": 20.0,
                    "digest": hashlib.sha256(content).hexdigest(),
                    "origin_system": "alpha", "created_at": 1.0}
        (ckpt_dir / "manifest.json").write_text(json.dumps(manifest))
        code, doc = run_json(capsys, ["resume", *configs(app=app),
                                      "--store", str(tmp_path / "store"), "--json",
                                      "--checkpoint", str(ckpt_dir)])
        assert code == EXIT_OK
        assert doc["history"] == []


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


class TestStatusCommand:
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

    @pytest.mark.parametrize("torn", ["state.json", "result.json"])
    def test_torn_run_file_exits_config(self, tmp_path, capsys, torn):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "state.json").write_text(canonical_json(run_state_to_dict(RunState())),
                                            encoding="utf-8")
        (run_dir / torn).write_text('{"phase":', encoding="utf-8")
        assert main(["status", "r", "--store", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and torn in err[0]
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

    def test_out_of_range_endpoint_exits_config(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([[0, 9, 1]]))
        assert main(["topo", "p2p_star", "4", str(trace)]) == EXIT_CONFIG


class TestIobenchCommand:
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
        app_path.write_text(json.dumps(app_to_dict(make_app(work_total=500.0))))
        code, doc = run_json(capsys, ["scaling", "--app", str(app_path),
                                      "--process-counts", "1,4,16", "--json"])
        assert code == EXIT_OK
        assert [r["processes"] for r in doc["rows"]] == [1, 4, 16]
        assert doc["rows"][0]["speedup"] == pytest.approx(1.0)
