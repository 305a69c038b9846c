import json

import pytest
from hypothesis import given, strategies as st

from bee.model import (
    AppSpec,
    CommKind,
    CommPattern,
    ComputeSystem,
    ContainerSource,
    DataVolume,
    HardwareConfig,
    NetworkSolution,
    ParseError,
    ResourcePool,
    StorageSolution,
    from_json,
    quantize_work,
    to_json,
    validate,
)
from conftest import make_app, make_hardware, make_pool, make_system


class TestValidate:
    def test_empty_pool_flagged(self):
        report = validate(ResourcePool(systems=()), make_app(), make_hardware())
        assert any(v.field == "pool.systems" and "no systems" in v.message for v in report)

    def test_insufficient_hosts(self):
        # every system has 2 hosts but the app wants one process per node on 4
        pool = make_pool(make_system("a", n_hosts=2), make_system("b", n_hosts=2))
        report = validate(pool, make_app(process_count=4), make_hardware())
        assert any(v.rule == "insufficient hosts" for v in report)

    def test_well_formed_passes(self):
        pool = make_pool(make_system("a", n_hosts=2), make_system("b", n_hosts=4))
        assert validate(pool, make_app(process_count=4), make_hardware()) == []

    def test_exactly_one_container_source(self):
        app = make_app()
        bad = AppSpec(**{**app.__dict__, "container_source": ContainerSource(None, None)})
        report = validate(make_pool(make_system()), bad, make_hardware())
        assert any(v.field == "app.container_source" for v in report)

    def test_mixed_pattern_needs_ratio(self):
        app = make_app(comm=CommKind.MIXED)
        report = validate(make_pool(make_system()), app, make_hardware())
        assert any(v.field == "app.comm_pattern.ratio" for v in report)
        assert validate(make_pool(make_system()),
                        make_app(comm=CommKind.MIXED, ratio=0.7), make_hardware()) == []

    def test_ssh_port_range(self):
        hw = make_hardware(ssh_base_port=80)
        report = validate(make_pool(make_system()), make_app(), hw)
        assert any(v.field == "uconf.ssh_base_port" for v in report)

    def test_pure(self):
        pool = make_pool(make_system("a", n_hosts=1))
        app = make_app(process_count=3)
        hw = make_hardware()
        assert validate(pool, app, hw) == validate(pool, app, hw)


class TestSerialization:
    def test_pool_round_trip(self):
        pool = make_pool(make_system("a"), make_system("b", n_hosts=3, cpu_rate=2.5))
        assert from_json(ResourcePool, json.loads(json.dumps(to_json(pool))), "pool") == pool

    def test_app_round_trip(self):
        app = make_app(comm=CommKind.MIXED, ratio=0.25, io_read=1024, io_write=2048)
        assert from_json(AppSpec, json.loads(json.dumps(to_json(app))), "app") == app

    def test_hardware_round_trip(self):
        hw = make_hardware(network=NetworkSolution.MULTICAST,
                           storage=StorageSolution.DATA_IMAGE_NFS)
        assert from_json(HardwareConfig, json.loads(json.dumps(to_json(hw))), "uconf") == hw

    def test_volume_round_trip(self):
        vol = DataVolume(id="v1", byte_size=42, content_digest="ab" * 32)
        assert from_json(DataVolume, to_json(vol), "volume") == vol

    def test_comm_pattern_accepts_bare_string(self):
        doc = to_json(make_app())
        doc["comm_pattern"] = "all_to_all"
        assert from_json(AppSpec, doc, "app").comm_pattern == CommPattern(CommKind.ALL_TO_ALL)

    def test_hosts_accept_bare_strings(self):
        doc = to_json(make_system())
        doc["hosts"] = ["x", "y"]
        parsed = from_json(ComputeSystem, doc, "system")
        assert [h.id for h in parsed.hosts] == ["x", "y"]

    def test_unknown_enum_rejected(self):
        doc = to_json(make_hardware())
        doc["network_solution"] = "token-ring"
        with pytest.raises(ParseError):
            from_json(HardwareConfig, doc, "uconf")

    def test_missing_field_rejected(self):
        doc = to_json(make_app())
        del doc["work_total"]
        with pytest.raises(ParseError):
            from_json(AppSpec, doc, "app")

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.5, max_value=1e6, allow_nan=False),
           st.sampled_from(list(NetworkSolution)), st.sampled_from(list(StorageSolution)))
    def test_round_trip_property(self, n_hosts, procs, work, net, storage):
        pool = make_pool(make_system("s", n_hosts=n_hosts))
        app = make_app(work_total=work, process_count=procs)
        hw = make_hardware(network=net, storage=storage)
        assert from_json(ResourcePool, to_json(pool), "pool") == pool
        assert from_json(AppSpec, to_json(app), "app") == app
        assert from_json(HardwareConfig, to_json(hw), "uconf") == hw


def test_quantize_work_is_exact_dyadic():
    q = quantize_work(2.5)
    assert q == 2.5
    assert quantize_work(0.0) == 0.0
    # quantized values always sit on the 2**-20 lattice
    assert (quantize_work(1.37) * (1 << 20)).is_integer()
