"""The experiment fleet: spec expansion, the runner, byte-identity."""

import json
import re

import pytest

from repro.fleet import (FleetSpec, FleetSpecError, render_csv,
                         render_json, run_fleet, run_point)

# -- spec validation and expansion ---------------------------------------------


def _spec(**overrides):
    data = {
        "name": "t", "seed": 1, "n_ops": 24, "n_clients": 2,
        "mix": "read4k",
        "grid": {
            "topology": [{"kind": "star", "n": 4}],
            "workload": [{"kind": "orfa", "api": "mx"}],
            "offered_load": [4000, 32000],
        },
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


def test_points_expand_in_declared_order():
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}, {"kind": "fat_tree", "k": 4}],
        "mode": ["packet", "train"],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [1000, 2000, 3000],
    })
    points = spec.points()
    assert len(points) == 2 * 2 * 1 * 1 * 3
    assert [p.index for p in points] == list(range(12))
    # topology outermost, offered_load inner.
    assert points[0].config()["topology"] == "star4"
    assert points[6].config()["topology"] == "ft4"
    assert [p.offered_load for p in points[:3]] == [1000.0, 2000.0, 3000.0]
    assert points[0].mode == "packet" and points[3].mode == "train"


def test_spec_validation_rejects_bad_input():
    with pytest.raises(FleetSpecError):
        _spec(grid={"climate": ["warm"]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"topology": [{"kind": "ring", "n": 4}]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"mode": ["quantum"]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"offered_load": [0]})
    with pytest.raises(FleetSpecError):
        _spec(mix="bogus")
    with pytest.raises(FleetSpecError):
        _spec(n_clients=9)  # star4 has only 3 client hosts
    with pytest.raises(FleetSpecError):
        _spec(grid={"faults": [{"kind": "gamma_ray"}]})
    with pytest.raises(FleetSpecError):
        _spec(loop="semi")
    with pytest.raises(FleetSpecError):
        FleetSpec.from_dict({"bogus_key": 1})


def test_spec_round_trips_through_files(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec().to_dict()))
    spec = FleetSpec.from_file(str(path))
    assert spec.to_dict() == _spec().to_dict()
    with pytest.raises(FleetSpecError):
        FleetSpec.from_file(str(tmp_path / "missing.json"))


def test_fault_axis_config_labels():
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [4000],
        "faults": [None, {"kind": "nic_reset", "node": 2, "at_us": 300}],
    })
    labels = [p.config()["fault"] for p in spec.points()]
    assert labels == ["none", "nic_reset@2"]


# -- the runner ----------------------------------------------------------------


def _fault_spec(*faults):
    return _spec(n_ops=60, grid={
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [16000],
        "faults": [None, *faults],
    })


def test_fault_axis_changes_the_rows_it_labels():
    """A link flap on a client's host link slows the point down, and a
    crashed client loses ops: every offered op is either achieved or
    failed."""
    spec = _fault_spec({"kind": "link_flap", "link": "switch.l1"},
                       {"kind": "node_crash", "node": 1})
    clean, flap, crash = (row["metrics"] for row in run_fleet(spec).rows)
    assert clean["failed_ops"] == flap["failed_ops"] == 0
    assert flap["mean_ns"] != clean["mean_ns"]
    assert crash["failed_ops"] > 0
    assert crash["achieved_ops"] + crash["failed_ops"] == crash["offered_ops"]


@pytest.mark.parametrize("fault", [
    {"kind": "link_flap", "link": "nope"},
    {"kind": "nic_reset", "node": 99},
    {"kind": "node_crash", "node": 99},
], ids=["link_flap", "nic_reset", "node_crash"])
def test_fault_naming_nothing_in_the_topology_is_a_spec_error(fault):
    spec = _fault_spec(fault)
    with pytest.raises(FleetSpecError, match="names no"):
        run_point(spec, spec.points()[1])



def test_rerun_and_parallel_runs_are_byte_identical():
    """The fleet contract: back-to-back in-process sweeps must be
    byte-identical to each other AND to forked-worker sweeps — i.e. a
    run leaves nothing behind that a fresh process wouldn't also see."""
    spec = _spec()
    first = render_json(run_fleet(spec, parallel=1))
    second = render_json(run_fleet(spec, parallel=1))
    forked = render_json(run_fleet(spec, parallel=2))
    assert first == second
    assert first == forked


def test_run_point_rows_are_complete():
    spec = _spec()
    row = run_point(spec, spec.points()[0])
    assert row["config"]["topology"] == "star4"
    assert row["metrics"]["achieved_ops"] == 24
    assert row["metrics"]["failed_ops"] == 0
    assert row["sim_ns"] > 0 and row["events"] > 0
    assert len(row["metrics"]["per_client_ops"]) == 2


def test_render_csv_shape():
    spec = _spec()
    result = run_fleet(spec)
    csv = render_csv(result)
    lines = csv.strip().split("\n")
    assert len(lines) == 1 + len(result.rows)
    header = lines[0].split(",")
    assert header[0] == "index" and "p99_ns" in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_saturation_knee_over_the_load_axis():
    """The acceptance curve: p99 grows monotonically with offered load
    and the saturated point sits well above the light-load point."""
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [4000, 16000, 64000],
    }, n_ops=120)
    result = run_fleet(spec)
    p99s = [row["metrics"]["p99_ns"] for row in result.rows]
    assert p99s == sorted(p99s)
    assert p99s[-1] >= 2 * p99s[0]


# -- the CLI -------------------------------------------------------------------


def test_bench_fleet_cli(tmp_path, capsys):
    from repro.bench.fleet import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec().to_dict()))
    out_prefix = str(tmp_path / "results")
    assert main(["--spec", str(spec_path), "--out", out_prefix]) == 0
    out = capsys.readouterr().out
    assert "fleet t: 2 points" in out
    data = json.loads((tmp_path / "results.json").read_text())
    assert len(data["points"]) == 2
    csv = (tmp_path / "results.csv").read_text()
    assert csv.startswith("index,")

    assert main(["--schema"]) == 0
    assert main([]) == 2
    assert main(["--spec", str(spec_path), "--parallel", "-1"]) == 2
    assert main(["--spec", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {"topology": [{"kind": "moebius"}]}}')
    assert main(["--spec", str(bad)]) == 2
    # A fault naming no link of the built topology fails at run time.
    ghost = _spec(grid={"faults": [{"kind": "link_flap", "link": "nope"}]})
    bad.write_text(json.dumps(ghost.to_dict()))
    assert main(["--spec", str(bad)]) == 2
    assert "names no link" in capsys.readouterr().err


def test_bench_fleet_parallel_means_what_bench_all_means(tmp_path, capsys):
    """``--parallel`` bounds the world runner's workers, as in ``bench
    all``: the default is one per usable CPU and 1 is this process; the
    timing line sums the points' events wherever they ran."""
    from repro.bench.fleet import main
    from repro.sim.worlds import workers

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec().to_dict()))

    def timing(*argv):
        assert main(["--spec", str(spec_path), "--timings", *argv]) == 0
        err = capsys.readouterr().err
        line = re.search(r"\[timing\] 2 points .* (\d+) events .* MiB peak "
                         r"RSS \(parallel=(\d+)\)", err)
        return int(line.group(1)), int(line.group(2))

    default = timing()
    assert default[1] == workers(2)
    in_process = timing("--parallel", "1")
    assert in_process[1] == 1
    assert in_process[0] == default[0] > 0
