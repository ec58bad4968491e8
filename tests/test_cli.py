import csv
import importlib.metadata
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vmshield
from vmshield.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, dispatch
from vmshield.errors import ValidationError
from vmshield.resources import ResourceVector
from vmshield.scheduler import ServerState, ServerTable
from vmshield.simulator import Scenario, ScenarioEvent

ALARM_TRACE = "interval_index,vm_id,syn,finrst\n0,vm1,106242,3\n1,vm1,107762,3\n"

CLUSTER = {
    "servers": [
        {"id": "A", "usage": {"cpu": 70.4, "mem": 40, "bw": 60},
         "threshold": {"cpu": 100, "mem": 100, "bw": 100}},
        {"id": "B", "usage": {"cpu": 50.61, "mem": 30, "bw": 40},
         "threshold": {"cpu": 100, "mem": 100, "bw": 100}},
        {"id": "C", "usage": {"cpu": 71.44, "mem": 30, "bw": 50},
         "threshold": {"cpu": 100, "mem": 100, "bw": 100}},
    ]
}

SCENARIO = {
    "servers": [
        {"id": "s1", "threshold": {"cpu": 300, "mem": 300, "bw": 300},
         "usage": {"cpu": 5, "mem": 5, "bw": 5}},
    ],
    "vm_classes": {"cpu-intensive": {"cpu": 30, "mem": 5, "bw": 5}},
    "events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive"}],
    "duration": 3,
    "seed": 4,
}


def _run(argv, monkeypatch=None):
    """dispatch() against a captured stdout; env is whatever the test set."""
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("FORMAT", "SEED", "VERBOSITY", "CONFIG"):
        monkeypatch.delenv("VMSHIELD_" + name, raising=False)


# ------------------------------------------------------------- plumbing


def test_help_exits_zero(capsys):
    code, _ = _run(["--help"])
    assert code == EXIT_OK
    assert "vmshield" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    code, out = _run([])
    assert code == EXIT_USAGE
    assert out == ""
    assert "subcommand" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    code, _ = _run(["defrag"])
    assert code == EXIT_USAGE


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DEMO = Path(__file__).resolve().parents[1] / "demos" / "small_datacenter.json"

SUBCOMMANDS = ("ahp", "place", "detect", "gen", "simulate")


def _declared_script():
    """The `vmshield` entry point declared in pyproject.toml, e.g. 'vmshield.cli:main'."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "vmshield" in scripts, "pyproject.toml should declare a vmshield console script"
    return scripts["vmshield"]


def _assert_cli_help(proc):
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: vmshield")
    for name in SUBCOMMANDS:
        assert re.search(rf"^\s+{name}\s", proc.stdout, re.M), name


def test_console_script_is_installed(tmp_path):
    """The declared script starts the CLI, run through the launcher an installer writes."""
    module, _, attr = _declared_script().partition(":")
    launcher = tmp_path / "vmshield"
    launcher.write_text(
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'vmshield'\nsys.exit({attr}())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vmshield.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(launcher), "--help"],
                          capture_output=True, text=True, env=env)
    _assert_cli_help(proc)


@pytest.mark.skipif(shutil.which("vmshield") is None, reason="vmshield console script not on PATH")
def test_installed_console_script_runs():
    eps = importlib.metadata.entry_points(group="console_scripts", name="vmshield")
    assert [ep.value for ep in eps] == [_declared_script()], "stale or foreign vmshield install"
    proc = subprocess.run([shutil.which("vmshield"), "--help"], capture_output=True, text=True)
    _assert_cli_help(proc)


# ------------------------------------------------------------------ ahp


def test_ahp_from_profile(tmp_path):
    path = _write(tmp_path, "p.json", {"profile": {"cpu": 20, "mem": 60, "bw": 20}})
    code, out = _run(["ahp", "--input", path])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["weights"]["w_cpu"] == pytest.approx(0.2, abs=1e-9)
    assert payload["weights"]["w_mem"] == pytest.approx(0.6, abs=1e-9)
    assert payload["weights"]["w_bw"] == pytest.approx(0.2, abs=1e-9)
    assert payload["lambda_max"] == pytest.approx(3.0, abs=1e-9)
    assert payload["cr"] < 1e-9


def test_ahp_from_matrix(tmp_path):
    matrix = [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]]
    path = _write(tmp_path, "m.json", {"matrix": matrix})
    code, out = _run(["ahp", "--input", path])
    assert code == EXIT_OK
    weights = json.loads(out)["weights"]
    assert weights["w_cpu"] == pytest.approx(4 / 7, abs=1e-9)


def test_ahp_rejects_inconsistent_matrix(tmp_path, capsys):
    cyclic = [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]
    path = _write(tmp_path, "m.json", {"matrix": cyclic})
    code, out = _run(["ahp", "--input", path])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "consistency ratio" in capsys.readouterr().err


def test_ahp_input_validation(tmp_path, capsys):
    for name, source in [("both", {"profile": {"cpu": 1, "mem": 1, "bw": 1}, "matrix": [[1, 1, 1]] * 3}),
                         ("neither", {})]:
        path = _write(tmp_path, name + ".json", source)
        assert _run(["ahp", "--input", path]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {path}: expected exactly one of 'profile' or 'matrix'\n"
    assert _run(["ahp", "--input", str(tmp_path / "nope.json")])[0] == EXIT_USAGE
    capsys.readouterr()
    lopsided = _write(tmp_path, "bad.json", {"matrix": [[1, 2, 3], [1, 1, 1], [1, 1, 1]]})
    assert _run(["ahp", "--input", lopsided])[0] == EXIT_USAGE
    assert f"{lopsided}: matrix: pairwise matrix must be reciprocal" in capsys.readouterr().err
    not_numbers = _write(tmp_path, "obj.json", {"matrix": [[1, {}, 1], [1, 1, 1], [1, 1, 1]]})
    assert _run(["ahp", "--input", not_numbers])[0] == EXIT_USAGE
    assert f"{not_numbers}: matrix: pairwise matrix must be a 3x3 array of numbers" in capsys.readouterr().err
    one_row = _write(tmp_path, "row.json", {"matrix": [[1, 2, 3]]})
    assert _run(["ahp", "--input", one_row])[0] == EXIT_USAGE
    assert f"{one_row}: matrix: pairwise matrix must be 3x3, got shape (1, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, named", [
    ("--cr-limit", "0", "cr_limit"),
    ("--cr-limit", "-1", "cr_limit"),
    ("--cr-limit", "nan", "cr_limit"),
    ("--cr-limit", "inf", "cr_limit"),
    ("--tol", "nan", "tol must be"),
    ("--tol", "inf", "tol must be"),
    ("--max-iter", "0", "max_iter"),
])
def test_ahp_parameter_errors_are_usage_errors(tmp_path, capsys, flag, value, named):
    path = _write(tmp_path, "p.json", {"profile": {"cpu": 20, "mem": 60, "bw": 20}})
    code, out = _run(["ahp", "--input", path, flag, value])
    assert (code, out) == (EXIT_USAGE, "")
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------- place


def test_place_reproduces_published_choice(tmp_path):
    cluster = _write(tmp_path, "cluster.json", CLUSTER)
    demand = _write(tmp_path, "demand.json", {"cpu": 4, "mem": 12, "bw": 4})
    weights = _write(tmp_path, "weights.json", {"w_cpu": 0.2, "w_mem": 0.6, "w_bw": 0.2})
    code, out = _run(["place", "--cluster", cluster, "--demand", demand,
                      "--weights", weights])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["chosen"] == "B"
    assert payload["scores"]["A"] == pytest.approx(50.08, abs=1e-9)
    assert payload["scores"]["B"] == pytest.approx(36.122, abs=1e-9)
    assert payload["scores"]["C"] == pytest.approx(42.288, abs=1e-9)


def test_place_derives_weights_from_demand(tmp_path):
    cluster = _write(tmp_path, "cluster.json", CLUSTER)
    demand = _write(tmp_path, "demand.json", {"cpu": 20, "mem": 60, "bw": 20})
    code, out = _run(["place", "--cluster", cluster, "--demand", demand])
    assert code == EXIT_OK
    weights = json.loads(out)["weights"]
    assert weights["w_mem"] == pytest.approx(0.6, abs=1e-9)


def test_place_rejection_exit_codes(tmp_path, capsys):
    cluster = _write(tmp_path, "cluster.json", CLUSTER)
    demand = _write(tmp_path, "demand.json", {"cpu": 90, "mem": 90, "bw": 90})
    code, out = _run(["place", "--cluster", cluster, "--demand", demand])
    assert code == EXIT_OK
    assert json.loads(out)["chosen"] is None

    code, out = _run(["place", "--cluster", cluster, "--demand", demand, "--strict"])
    assert code == EXIT_DOMAIN
    # the decision still lands on stdout; the complaint goes to stderr
    assert json.loads(out)["reason"] == "no feasible server"
    assert "no feasible server" in capsys.readouterr().err


def _one_server(**fields):
    return {"servers": [dict({"id": "A"}, **fields)]}


@pytest.mark.parametrize("cluster, named", [
    ({"servers": 5}, "servers must be a JSON array"),
    ({"servers": [5]}, "servers[0] must be a JSON object"),
    (dict(CLUSTER, vms=5), "vms must be a JSON array"),
    (_one_server(threshold={"cpu": 0, "mem": 80, "bw": 80}), "threshold components must be > 0"),
    (_one_server(id=""), "server id must be non-empty"),
    (_one_server(id=7), "servers[0].id"),
    (_one_server(vms="v1"), "servers[0].vms"),
    (_one_server(usage=[1, 2, 3]), "servers[0].usage"),
    (_one_server(cores=8), "servers[0]: unknown keys ['cores']"),
])
def test_place_rejects_malformed_clusters(tmp_path, capsys, cluster, named):
    path = _write(tmp_path, "cluster.json", cluster)
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    assert _run(["place", "--cluster", path, "--demand", demand])[0] == EXIT_USAGE
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("vm, named", [
    (5, "vms[0] must be a JSON object"),
    ({"id": "v1", "class": "cpu-intensive", "cores": 2}, "vms[0]: unknown keys ['cores']"),
    ({"id": 1, "class": "cpu-intensive"}, "vms[0].id must be a JSON string"),
    ({"id": "v1", "class": "gpu-intensive"}, "vms[0].class: unknown hotspot class"),
    ({"id": "v1", "class": "cpu-intensive", "observed": {"cpu": 1, "mem": 1, "bw": 1, "gpu": 9}},
     "vms[0].observed: resource vector: unknown keys ['gpu']"),
])
def test_place_rejects_malformed_cluster_vms(tmp_path, capsys, vm, named):
    path = _write(tmp_path, "cluster.json", dict(CLUSTER, vms=[vm]))
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    assert _run(["place", "--cluster", path, "--demand", demand])[0] == EXIT_USAGE
    assert named in capsys.readouterr().err


def test_place_names_a_vm_listed_twice(tmp_path, capsys):
    vms = [{"id": vid, "class": "cpu-intensive"} for vid in ("v1", "v2", "v1")]
    path = _write(tmp_path, "cluster.json", dict(CLUSTER, vms=vms))
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    assert _run(["place", "--cluster", path, "--demand", demand])[0] == EXIT_USAGE
    assert f"error: {path}: vms[2]: duplicate vm id 'v1'" in capsys.readouterr().err


def test_place_rejects_double_hosting(tmp_path, capsys):
    bad = {
        "servers": [
            {"id": "a", "vms": ["v1"]},
            {"id": "b", "vms": ["v1"]},
        ],
        "vms": [{"id": "v1", "class": "cpu-intensive"}],
    }
    cluster = _write(tmp_path, "cluster.json", bad)
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    code, _ = _run(["place", "--cluster", cluster, "--demand", demand])
    assert code == EXIT_USAGE
    assert "vm 'v1' hosted by both a and b" in capsys.readouterr().err


def _python_server(entry):
    """The ServerState a Python caller builds for a server entry of a file."""
    fields = dict(entry)
    for key in ("usage", "threshold"):
        if key in fields:
            fields[key] = ResourceVector(**fields[key])
    if "vms" in fields:
        fields["vms"] = set(fields["vms"])
    return ServerState(**fields)


@pytest.mark.parametrize("servers, message", [
    ([{"id": ""}], "server id must be non-empty"),
    ([{"id": "a"}, {"id": "a"}], "duplicate server id 'a'"),
    ([{"id": "a", "power": "on"}], "server a: power must be 'active' or 'asleep', got 'on'"),
    ([{"id": "a", "threshold": {"cpu": 80.0, "mem": float("nan"), "bw": 80.0}}],
     "server a: threshold components must be > 0 and finite, got ResourceVector(cpu=80.0, mem=nan, bw=80.0)"),
    ([{"id": "a", "vms": ["v1"]}, {"id": "b", "vms": ["v1"]}], "vm 'v1' hosted by both a and b"),
], ids=["empty-id", "duplicate-id", "power-on", "threshold-nan", "vm-on-two"])
def test_a_server_fault_reads_the_same_from_either_file_and_from_python(tmp_path, capsys, servers, message):
    # ServerTable.from_servers owns every server rule; the file readers only read and name the file
    scenario = _write(tmp_path, "scenario.json", dict(SCENARIO, servers=servers))
    assert _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"
    cluster = _write(tmp_path, "cluster.json", {"servers": servers, "vms": [{"id": "v1", "class": "cpu-intensive"}]})
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    assert _run(["place", "--cluster", cluster, "--demand", demand]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {cluster}: {message}\n"
    with pytest.raises(ValidationError) as from_python:
        ServerTable.from_servers([_python_server(entry) for entry in servers])
    assert str(from_python.value) == message


def test_place_csv_reads_back_ids_with_commas_quotes_and_carriage_returns(tmp_path):
    ids = ["a\rb", 'c,"d', "plain"]
    cluster = _write(tmp_path, "cluster.json", {"servers": [{"id": sid} for sid in ids]})
    demand = _write(tmp_path, "demand.json", {"cpu": 1, "mem": 1, "bw": 1})
    code, out = _run(["--format", "csv", "place", "--cluster", cluster, "--demand", demand])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {3}
    assert [row[0] for row in rows] == ["server", *sorted(ids)]
    assert out.endswith("plain,0.000000,\n")  # a plain id prints as it did


def test_place_table_keeps_a_line_feed_id_on_its_row(tmp_path):
    cluster = _write(tmp_path, "cluster.json", {"servers": [{"id": "a\nb"}, {"id": "c"}]})
    demand = _write(tmp_path, "demand.json", {"cpu": 4, "mem": 12, "bw": 4})
    code, out = _run(["--format", "table", "place", "--cluster", cluster, "--demand", demand])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "server  score     chosen",
        "a\\nb    0.000000  *",
        "c       0.000000",
    ]


# --------------------------------------------------------------- detect


def test_detect_prebinned_trace(tmp_path):
    trace = _write(tmp_path, "trace.csv", ALARM_TRACE)
    code, out = _run(["detect", "--trace", trace])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["alarms"] == [
        {"vm_id": "vm1", "interval_index": 1, "y_value": 1.839888, "action_taken": "log"}
    ]
    assert payload["series"]["vm1"] == [0.919944, 1.839888]


def test_detect_counts_missing_binned_intervals_as_zero(tmp_path):
    # intervals 1-6 are absent: each is a quiet interval that decays y,
    # exactly as if the zero rows had been written out
    header = "interval_index,vm_id,syn,finrst\n"
    gapped = _write(tmp_path, "gapped.csv", header + "0,v,100,0\n7,v,100,0\n")
    filled = _write(tmp_path, "filled.csv", header + "0,v,100,0\n"
                    + "".join(f"{i},v,0,0\n" for i in range(1, 7)) + "7,v,100,0\n")
    code, out = _run(["detect", "--trace", gapped])
    assert code == EXIT_OK
    assert out == _run(["detect", "--trace", filled])[1]
    payload = json.loads(out)
    assert payload["alarms"] == []
    assert len(payload["series"]["v"]) == 8


def test_detect_policy_annotation_and_stats(tmp_path):
    trace = _write(tmp_path, "trace.csv", ALARM_TRACE)
    stats = tmp_path / "stats.csv"
    code, out = _run(["detect", "--trace", trace, "--policy", "suspend",
                      "--stats", str(stats)])
    assert code == EXIT_OK
    assert json.loads(out)["alarms"][0]["action_taken"] == "suspend"
    lines = stats.read_text().splitlines()
    assert lines[0] == "interval,vm_id,syn,finrst,d,y,alarm"
    assert lines[1] == "0,vm1,106242,3,0.999944,0.919944,0"
    assert lines[2] == "1,vm1,107762,3,0.999944,1.839888,1"


def test_detect_rejects_bad_binned_rows(tmp_path, capsys):
    duplicate = _write(tmp_path, "dup.csv", ALARM_TRACE + "1,vm1,5,5\n")
    assert _run(["detect", "--trace", duplicate])[0] == EXIT_USAGE
    assert "trace line 4: duplicate row" in capsys.readouterr().err
    negative = _write(tmp_path, "neg.csv", "interval_index,vm_id,syn,finrst\n0,vm1,-3,0\n")
    assert _run(["detect", "--trace", negative])[0] == EXIT_USAGE
    assert "trace line 2" in capsys.readouterr().err


@pytest.mark.parametrize("index", [10**15, 10**30])
def test_detect_names_the_row_whose_index_makes_the_grid_too_large(tmp_path, capsys, index):
    # both grids fail to allocate at once; one that fits would be allocated, so none is tried
    trace = _write(tmp_path, "far.csv",
                   f"interval_index,vm_id,syn,finrst\n0,v,1,1\n{index},v,1,1\n3,w,1,1\n")
    code, out = _run(["detect", "--trace", trace])
    assert (code, out) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert f"error: trace line 3: interval_index {index} makes a grid too large to allocate" in err


def _detect_in_capped_child(argv):
    """vmshield detect in a child process whose address space is capped at 4 GiB, so a
    grid larger than that fails to allocate whatever the host's overcommit policy."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    env = dict(os.environ, PYTHONPATH=str(Path(vmshield.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "vmshield.cli", "detect", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=cap, timeout=120)


@pytest.mark.parametrize("interval, vms, grid", [
    ("10", 1, "1 x 900000000001"),  # 6.55 TiB of SYN counts
    ("0.001", 1, "1 x 9000000000000001"),  # 63.9 PiB
    ("0.000001", 2, "2 x 9000000000000000001"),  # more cells than an int64 holds
])
def test_detect_names_the_timestamp_whose_event_grid_is_too_large(tmp_path, interval, vms, grid):
    events = "".join(f"0.5,v{k},SYN\n" for k in range(2, vms + 1))
    trace = _write(tmp_path, "far.csv", f"timestamp_s,vm_id,pkt_type\n0.000000,v1,SYN\n{events}"
                                        "9000000000000.000000,v1,FIN\n")
    proc = _detect_in_capped_child(["--trace", trace, "--interval", interval])
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith(f"error: timestamp 9000000000000000000 us makes a {grid} grid "
                                  "too large to allocate: "), proc.stderr


def test_detect_rejects_negative_timestamps(tmp_path, capsys):
    trace = _write(tmp_path, "neg.csv",
                   "timestamp_s,vm_id,pkt_type\n-5.0,vm1,SYN\n-4.0,vm1,SYN\n1.0,vm1,FIN\n")
    code, out = _run(["detect", "--trace", trace])
    assert (code, out) == (EXIT_USAGE, "")
    assert "trace line 2: timestamp_s must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["inf", "-inf", "1e400"])
def test_detect_rejects_infinite_timestamps(tmp_path, capsys, stamp):
    trace = _write(tmp_path, "inf.csv", f"timestamp_s,vm_id,pkt_type\n0.5,vm1,SYN\n{stamp},vm1,FIN\n")
    code, out = _run(["detect", "--trace", trace])
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: trace line 3: " in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["1e300", "9223372036854.775808"])
def test_detect_rejects_timestamps_beyond_int64_microseconds(tmp_path, capsys, stamp):
    # 1e300 s used to parse, and bin_events then tried to build about 1e299 intervals
    trace = _write(tmp_path, "far.csv", f"timestamp_s,vm_id,pkt_type\n0.5,vm1,SYN\n{stamp},vm1,FIN\n")
    code, out = _run(["detect", "--trace", trace])
    assert (code, out) == (EXIT_USAGE, "")
    assert (f"error: trace line 3: timestamp_s must be below 9223372036854775808 microseconds, "
            f"got {stamp}") in capsys.readouterr().err


def test_detect_rejects_negative_interval_index(tmp_path, capsys):
    # the series lists y by position, so rows from -3 would start it at no stated interval
    trace = _write(tmp_path, "neg.csv", "interval_index,vm_id,syn,finrst\n-3,v,100,0\n0,v,100,0\n")
    code, out = _run(["detect", "--trace", trace])
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: trace line 2: interval_index must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["1e-7", "nan", "inf", "0"])
def test_detect_rejects_intervals_below_one_microsecond(tmp_path, capsys, interval):
    # 1e-7 rounds to a 0 us interval: a traceback before, never a silent result
    trace = _write(tmp_path, "t.csv", "timestamp_s,vm_id,pkt_type\n0.5,vm1,SYN\n")
    code, out = _run(["detect", "--trace", trace, "--interval", interval])
    assert (code, out) == (EXIT_USAGE, "")
    assert "interval_seconds must be finite and at least 1 microsecond" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["0", "nan", "-5", "1e-9"])
@pytest.mark.parametrize("trace", [ALARM_TRACE, "timestamp_s,vm_id,pkt_type\n0.5,vm1,SYN\n", None])
def test_detect_checks_the_interval_flag_for_every_trace(tmp_path, capsys, interval, trace):
    # a binned trace never uses the interval, and a bad one used to exit 0 there;
    # the flag is checked before the trace (None: a missing file) is read
    path = _write(tmp_path, "t.csv", trace) if trace else str(tmp_path / "none.csv")
    assert _run(["detect", "--trace", path, "--interval", interval]) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err.startswith("error: --interval: interval_seconds must be finite and at least 1 microsecond")


def test_detect_missing_trace(tmp_path):
    code, _ = _run(["detect", "--trace", str(tmp_path / "none.csv")])
    assert code == EXIT_USAGE


def test_gen_then_detect_round_trip(tmp_path):
    spec = _write(tmp_path, "spec.json",
                  {"vm_id": "web", "mode": "normal", "base_rate": 100,
                   "start": 0, "end": 30, "seed": 21})
    trace = str(tmp_path / "trace.csv")
    assert _run(["gen", "--spec", spec, "--out", trace])[0] == EXIT_OK
    code, out = _run(["detect", "--trace", trace])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["alarms"] == []
    assert max(payload["series"]["web"]) < 1.43


def test_gen_attack_is_detected(tmp_path):
    spec = _write(tmp_path, "spec.json", {
        "specs": [
            {"vm_id": "web", "mode": "normal", "base_rate": 100,
             "start": 0, "end": 30, "seed": 21},
            {"vm_id": "web", "mode": "attack", "base_rate": 100,
             "attack_multiplier": 0.5 * 3, "start": 10, "end": 30, "seed": 22},
        ]
    })
    trace = str(tmp_path / "trace.csv")
    assert _run(["gen", "--spec", spec, "--out", trace])[0] == EXIT_OK
    code, out = _run(["detect", "--trace", trace])
    assert code == EXIT_OK
    alarms = json.loads(out)["alarms"]
    assert alarms and alarms[0]["vm_id"] == "web"
    assert 1 <= alarms[0]["interval_index"] - 1 <= 12


def test_gen_then_detect_round_trips_a_carriage_return_in_an_id(tmp_path):
    # an unquoted "\r" used to end the row early, so detect rejected gen's own trace
    spec = _write(tmp_path, "spec.json", {"specs": [
        {"vm_id": "a\rb", "mode": "normal", "base_rate": 20, "start": 0, "end": 6, "seed": 2},
        {"vm_id": "a\rb", "mode": "attack", "base_rate": 20, "attack_multiplier": 4.0,
         "start": 2, "end": 6, "seed": 3},
    ]})
    trace, stats = tmp_path / "trace.csv", tmp_path / "stats.csv"
    assert _run(["gen", "--spec", spec, "--out", str(trace)])[0] == EXIT_OK
    assert b'"a\rb"' in trace.read_bytes()
    code, out = _run(["detect", "--trace", str(trace), "--stats", str(stats)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert list(payload["series"]) == ["a\rb"]
    assert [a["vm_id"] for a in payload["alarms"]] == ["a\rb"]
    with open(stats, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {row[1] for row in rows[1:]} == {"a\rb"}
    assert len(rows) == 1 + len(payload["series"]["a\rb"])


def test_detect_rejects_binned_counts_beyond_exact_floats(tmp_path, capsys):
    trace = _write(tmp_path, "big.csv", f"interval_index,vm_id,syn,finrst\n0,v,{2**53},0\n")
    assert _run(["detect", "--trace", trace]) == (EXIT_USAGE, "")
    assert "trace line 2: syn and finrst must be >= 0 and below" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    'timestamp_s,vm_id,pkt_type\n1.000000,"{vm_id}",SYN\n',
    'interval_index,vm_id,syn,finrst\n0,"{vm_id}",1,1\n',
], ids=["events", "binned"])
def test_detect_reports_a_field_over_the_csv_limit(tmp_path, capsys, text):
    # csv.reader's own error used to escape dispatch as a traceback
    vm_id = "v" * (csv.field_size_limit() + 1)
    trace = _write(tmp_path, "long.csv", text.format(vm_id=vm_id))
    assert _run(["detect", "--trace", trace]) == (EXIT_USAGE, "")
    assert "error: trace line 2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("drift", ["nan", "inf"])
def test_detect_rejects_a_non_finite_drift(tmp_path, capsys, drift):
    # a NaN drift used to clamp every y to 0, silently turning detection off
    trace = _write(tmp_path, "t.csv", ALARM_TRACE)
    assert _run(["detect", "--trace", trace, "--drift", drift]) == (EXIT_USAGE, "")
    assert "must be finite" in capsys.readouterr().err


# ------------------------------------------------------------------ gen


@pytest.mark.parametrize("interval", [1e-7, 4e-7])
def test_gen_rejects_intervals_below_one_microsecond(tmp_path, capsys, interval):
    # these round to a 0 us interval, which numpy used to reject as "high <= 0"
    path = _write(tmp_path, "spec.json", {"vm_id": "v", "interval_seconds": interval, "end": 2})
    assert _run(["gen", "--spec", path, "--out", "-"]) == (EXIT_USAGE, "")
    assert "interval_seconds must be finite and at least 1 microsecond" in capsys.readouterr().err



def test_gen_rejects_an_empty_specs_list(tmp_path, capsys):
    path = _write(tmp_path, "specs.json", {"specs": []})
    assert _run(["gen", "--spec", path, "--out", "-"]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {path}: specs must be a non-empty JSON array\n"


def test_gen_to_stdout_and_seed_override(tmp_path):
    spec = _write(tmp_path, "spec.json",
                  {"vm_id": "v", "mode": "normal", "base_rate": 5,
                   "start": 0, "end": 2, "seed": 1})
    code, first = _run(["gen", "--spec", spec, "--out", "-"])
    assert code == EXIT_OK
    assert first.startswith("timestamp_s,vm_id,pkt_type\n")
    assert len(first.splitlines()) == 1 + 2 * (5 * 2)

    _, again = _run(["gen", "--spec", spec, "--out", "-"])
    assert again == first
    _, reseeded = _run(["--seed", "99", "gen", "--spec", spec, "--out", "-"])
    assert reseeded != first


@pytest.mark.parametrize("wrap, seed_flag, seed_env, message", [
    (False, None, None, "{path}: seed must be >= 0"),
    (True, None, None, "{path}: specs[0]: seed must be >= 0"),
    (False, "-3", None, "error: seed must be >= 0"),
    (False, None, "-3", "error: seed must be >= 0"),
], ids=["spec", "specs", "flag", "env"])
def test_gen_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, wrap, seed_flag, seed_env, message):
    spec = {"vm_id": "v", "seed": 1 if seed_flag or seed_env else -1, "end": 2}
    path = _write(tmp_path, "spec.json", {"specs": [spec]} if wrap else spec)
    if seed_env is not None:
        monkeypatch.setenv("VMSHIELD_SEED", seed_env)
    argv = (["--seed", seed_flag] if seed_flag else []) + ["gen", "--spec", path, "--out", "-"]
    assert _run(argv) == (EXIT_USAGE, "")
    assert message.format(path=path) in capsys.readouterr().err


@pytest.mark.parametrize("spec,field", [
    ({"vm_id": "a", "base_rate": True, "end": 2}, "base_rate"),
    ({"vm_id": "a", "fin_delay_range": ["12", 19], "end": 2}, "fin_delay_range[0]"),
])
def test_gen_rejects_spec_fields_of_the_wrong_json_type(tmp_path, capsys, spec, field):
    path = _write(tmp_path, "spec.json", spec)
    assert _run(["gen", "--spec", path, "--out", "-"]) == (EXIT_USAGE, "")
    assert field in capsys.readouterr().err


def test_gen_rejects_an_id_that_is_not_utf8_before_opening_the_trace(tmp_path, capsys):
    # "\ud800" is a valid JSON escape of a lone surrogate, which no UTF-8 file can hold
    path = _write(tmp_path, "spec.json", '{"vm_id": "v\\ud800", "end": 2}')
    trace = tmp_path / "t.csv"
    assert _run(["gen", "--spec", path, "--out", str(trace)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {path}: vm_id must be a UTF-8 string, got 'v\\ud800'\n"
    assert not trace.exists()


# ------------------------------------------------------------- simulate


def test_simulate_writes_reports(tmp_path):
    scenario = _write(tmp_path, "demo.json", SCENARIO)
    outdir = tmp_path / "out"
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(outdir)])
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["seed"] == 4
    assert summary["counters"]["placements"] == 1
    for name in ("utilization.csv", "placements.json", "migrations.json",
                 "detector.csv", "alarms.json", "summary.json"):
        assert (outdir / name).is_file()
    on_disk = json.loads((outdir / "summary.json").read_text())
    assert on_disk == summary


def test_simulate_rejects_a_server_id_that_is_not_utf8_before_writing_reports(tmp_path, capsys):
    servers = [dict(SCENARIO["servers"][0], id="s\ud800")]
    scenario = _write(tmp_path, "bad.json", json.dumps(dict(SCENARIO, servers=servers)))  # escaped as \ud800
    outdir = tmp_path / "out"
    assert _run(["simulate", "--scenario", scenario, "--out", str(outdir)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {scenario}: servers[0]: id must be a UTF-8 string, got 's\\ud800'\n"
    assert not outdir.exists()


def test_simulate_seed_override_revalidates(tmp_path):
    scenario = _write(tmp_path, "demo.json", SCENARIO)
    code, out = _run(["simulate", "--scenario", scenario,
                      "--out", str(tmp_path / "o"), "--seed", "7"])
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 7
    code, _ = _run(["simulate", "--scenario", scenario,
                    "--out", str(tmp_path / "o2"), "--seed", "-3"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, env_seed, expected", [
    (["--seed", "1", "simulate"], None, 1),
    (["simulate", "--seed", "2"], None, 2),
    (["--seed", "1", "simulate", "--seed", "2"], None, 2),
    (["simulate", "--seed", "2"], "5", 2),
])
def test_simulate_seed_flag_beats_global_flag_and_env(tmp_path, monkeypatch, argv, env_seed, expected):
    scenario = _write(tmp_path, "demo.json", SCENARIO)
    if env_seed is not None:
        monkeypatch.setenv("VMSHIELD_SEED", env_seed)
    outdir = tmp_path / "out"
    code, _ = _run(argv + ["--scenario", scenario, "--out", str(outdir)])
    assert code == EXIT_OK
    assert json.loads((outdir / "summary.json").read_text())["seed"] == expected


def test_simulate_multiple_scenarios(tmp_path):
    s1 = _write(tmp_path, "alpha.json", SCENARIO)
    s2 = _write(tmp_path, "beta.json", dict(SCENARIO, seed=8))
    outdir = tmp_path / "multi"
    code, out = _run(["simulate", "--scenario", s1, s2, "--out", str(outdir)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload) == ["alpha", "beta"]
    assert (outdir / "alpha" / "summary.json").is_file()
    assert (outdir / "beta" / "summary.json").is_file()
    assert payload["beta"]["seed"] == 8
    # the scenarios run one after another; there is no --jobs option
    code, _ = _run(["simulate", "--scenario", s1, s2, "--out", str(outdir), "--jobs", "2"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("fields, named", [
    ({"servers": 5}, "servers must be a JSON array"),
    ({"vm_classes": []}, "vm_classes must be a JSON object"),
    ({"events": 5}, "events must be a JSON array"),
    ({"servers": [{"id": "s1", "vms": ["vm-001"]}]}, "servers[0].vms"),
    ({"servers": [{"id": "s1", "cores": 8}]}, "servers[0]: unknown keys ['cores']"),
    ({"servers": [{"id": "s1", "threshold": {"cpu": 0, "mem": 1, "bw": 1}}]},
     "threshold components must be > 0"),
    ({"fin_delay_range": {"low": 12}}, "fin_delay_range"),
])
def test_simulate_rejects_malformed_scenarios(tmp_path, capsys, fields, named):
    scenario = _write(tmp_path, "bad.json", dict(SCENARIO, **fields))
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("fields, named", [
    ({"duration": 3.9}, "duration must be a JSON integer"),
    ({"base_rate": "100"}, "base_rate must be a JSON integer"),
    ({"events": [{"tick": 0, "op": "vm_request", "class": "cpu-intensive"},
                 {"tick": 1, "op": "vm_shutdown", "vm": 1}]}, "events[1].vm must be a JSON string"),
    ({"low_watermark": {"cpu": 20, "mem": 20, "bw": 20, "gpu": 9}}, "low_watermark"),
    ({"low_watermark": {"cpu": "20", "mem": "20", "bw": "20"}},
     "low_watermark: cpu must be a JSON number"),
])
def test_simulate_rejects_coerced_values(tmp_path, capsys, fields, named):
    scenario = _write(tmp_path, "bad.json", dict(SCENARIO, **fields))
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("field", ["drift", "threshold", "interval_seconds", "throttle_factor"])
def test_simulate_rejects_non_finite_detector_settings(tmp_path, capsys, field):
    demo = json.loads(DEMO.read_text())
    demo["detector"][field] = float("nan")
    scenario = _write(tmp_path, "nan.json", demo)
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"detector {field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("interval", [1e-7, 4e-7])
def test_simulate_rejects_detector_intervals_below_one_microsecond(tmp_path, capsys, interval):
    # a 0 us interval used to end in a ZeroDivisionError traceback (exit 1)
    scenario = _write(tmp_path, "short.json",
                      dict(SCENARIO, detector={"interval_seconds": interval}))
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert "detector interval_seconds must be finite and at least 1 microsecond" in capsys.readouterr().err


def test_simulate_rejects_attack_counts_beyond_exact_floats(tmp_path, capsys):
    events = [*SCENARIO["events"],
              {"tick": 1, "op": "attack_start", "vm": "vm-001", "multiplier": 1e300}]
    scenario = _write(tmp_path, "flood.json", dict(SCENARIO, events=events))
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert "must stay below 9007199254740992 SYNs a tick" in capsys.readouterr().err


def test_simulate_event_error_names_the_event(tmp_path, capsys):
    demo = json.loads(DEMO.read_text())
    demo["events"][0]["count"] = 0
    scenario = _write(tmp_path, "zero.json", demo)
    code, out = _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert (f"error: {scenario}: events[0]: vm_request count must be finite and >= 1, got 0"
            in capsys.readouterr().err)


def test_simulate_error_names_the_bad_file(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", dict(SCENARIO, servers=5))
    code, out = _run(["simulate", "--scenario", str(DEMO), bad, "--out", str(tmp_path / "o")])
    assert (code, out) == (EXIT_USAGE, "")
    assert f"error: {bad}: servers must be a JSON array" in capsys.readouterr().err


def test_simulate_rejects_colliding_names(tmp_path):
    a = tmp_path / "x" / "demo.json"
    b = tmp_path / "y" / "demo.json"
    for p in (a, b):
        p.parent.mkdir()
        p.write_text(json.dumps(SCENARIO))
    code, _ = _run(["simulate", "--scenario", str(a), str(b),
                    "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_simulate_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = _run(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


# ---------------------------------------------------------- input files

REQUEST = {"tick": 0, "op": "vm_request", "class": "cpu-intensive"}
DEMAND = {"cpu": 1, "mem": 1, "bw": 1}
SPEC = {"vm_id": "v", "base_rate": 5, "end": 2}


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--scenario", dict(SCENARIO, events=[dict(REQUEST, counts=5)])],
     "events[0]: unknown keys ['counts']"),
    (["simulate", "--scenario", dict(SCENARIO, events=[
        REQUEST, {"tick": 1, "op": "attack_stop", "vm": "vm-001", "multiplier": 2.0}])],
     "events[1]: unknown keys ['multiplier']"),
    (["simulate", "--scenario", dict(SCENARIO, events=[dict(REQUEST, vm="vm-001")])],
     "events[0]: unknown keys ['vm']"),
    (["place", "--cluster", dict(CLUSTER, comment="three servers"), "--demand", DEMAND],
     "cluster: unknown keys ['comment']"),
    (["place", "--cluster", CLUSTER, "--demand", DEMAND,
      "--weights", {"w_cpu": 0.2, "w_mem": 0.6, "w_bw": 0.2, "w_gpu": 0.0}],
     "weight vector: unknown keys ['w_gpu']"),
    (["gen", "--spec", {"specs": [SPEC], "seed": 7}, "--out", "-"],
     "spec file: unknown keys ['seed']"),
    (["ahp", "--input", {"profile": {"cpu": 20, "mem": 60, "bw": 20}, "tol": 1}],
     "ahp input: unknown keys ['tol']"),
], ids=["vm_request-counts", "attack_stop-multiplier", "vm_request-vm", "cluster-comment",
        "weights-w_gpu", "specs-seed", "ahp-tol"])
def test_an_unknown_key_in_an_input_file_is_a_usage_error(tmp_path, capsys, argv, named):
    # each of these keys used to be dropped without a word, and the command exited 0
    argv = [_write(tmp_path, f"in{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert _run(argv) == (EXIT_USAGE, "")
    assert named in capsys.readouterr().err


NEGATIVE = {"cpu": -1, "mem": 1, "bw": 1}
NEGATIVE_TEXT = "components must be >= 0 and finite, got ResourceVector(cpu=-1.0, mem=1.0, bw=1.0)"


@pytest.mark.parametrize("argv, message", [
    (["place", "--cluster", CLUSTER, "--demand", NEGATIVE], f"demand {NEGATIVE_TEXT}"),
    (["ahp", "--input", {"profile": NEGATIVE}], f"profile {NEGATIVE_TEXT}"),
    (["ahp", "--input", {"profile": {"cpu": 1, "mem": float("inf"), "bw": 1}}],
     "profile components must be >= 0 and finite, got ResourceVector(cpu=1.0, mem=inf, bw=1.0)"),
    (["place", "--demand", DEMAND, "--cluster",
      dict(CLUSTER, vms=[{"id": "v1", "class": "cpu-intensive", "observed": NEGATIVE}])],
     f"vms[0].observed {NEGATIVE_TEXT}"),
    (["place", "--demand", DEMAND, "--cluster", {"servers": [{"id": "a", "usage": NEGATIVE}]}],
     f"server a: usage {NEGATIVE_TEXT}"),
    (["simulate", "--scenario", dict(SCENARIO, low_watermark=NEGATIVE)], f"low_watermark {NEGATIVE_TEXT}"),
    (["simulate", "--scenario", dict(SCENARIO, vm_classes={"cpu-intensive": {"cpu": 1, "mem": 1, "bw": float("inf")}})],
     "vm_classes.cpu-intensive components must be >= 0 and finite, got ResourceVector(cpu=1.0, mem=1.0, bw=inf)"),
], ids=["demand", "profile-negative", "profile-inf", "observed", "server-usage", "watermark", "class-inf"])
def test_every_vector_of_an_input_file_is_checked_by_its_owner(tmp_path, capsys, argv, message):
    # the vector reader only reads; the command, the scenario or the server table checks the vector.
    # The last file given holds the bad vector.
    argv = [_write(tmp_path, f"in{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)]
    bad = argv[-1]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert _run(argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("fields, message", [
    ({"vm_classes": {"cpu-intensive": {"cpu": float("nan"), "mem": 5.0, "bw": 5.0}}},
     "vm_classes.cpu-intensive components must be >= 0 and finite, got ResourceVector(cpu=nan, mem=5.0, bw=5.0)"),
    ({"vm_classes": {"cpu-intensive": {"cpu": 30.0, "mem": -5.0, "bw": 5.0}}},
     "vm_classes.cpu-intensive components must be >= 0 and finite, got ResourceVector(cpu=30.0, mem=-5.0, bw=5.0)"),
    ({"low_watermark": {"cpu": 20.0, "mem": 20.0, "bw": float("inf")}},
     "low_watermark components must be >= 0 and finite, got ResourceVector(cpu=20.0, mem=20.0, bw=inf)"),
], ids=["class-nan", "class-negative", "watermark-inf"])
def test_a_class_or_watermark_fault_reads_the_same_from_a_file_and_from_python(tmp_path, capsys, fields, message):
    # Scenario.validate owns the class and watermark rule, as ServerTable.from_servers owns the server ones
    scenario = _write(tmp_path, "scenario.json", dict(SCENARIO, **fields))
    assert _run(["simulate", "--scenario", scenario, "--out", str(tmp_path / "o")]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"
    python = {"servers": [_python_server(entry) for entry in SCENARIO["servers"]],
              "vm_classes": {"cpu-intensive": ResourceVector(30.0, 5.0, 5.0)},
              "events": [ScenarioEvent(0, "vm_request", "cpu-intensive")], "duration": 3, "seed": 4}
    for key, value in fields.items():
        python[key] = ({name: ResourceVector(**vec) for name, vec in value.items()} if key == "vm_classes"
                       else ResourceVector(**value))
    with pytest.raises(ValidationError) as from_python:
        Scenario(**python)
    assert str(from_python.value) == message


@pytest.mark.parametrize("command", [["ahp", "--input"], ["detect", "--trace"]])
def test_an_input_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    # the decode error used to be printed without the file's name
    path = tmp_path / "latin1.json"
    path.write_bytes('{"profile": {"cpu": 1, "mem": 1, "bw": 1}, "note": "é"}'.encode("latin-1"))
    assert _run([*command, str(path)]) == (EXIT_USAGE, "")
    assert f"error: cannot read {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


# -------------------------------------------------------- configuration


def test_format_env_and_flag_precedence(tmp_path, monkeypatch):
    trace = _write(tmp_path, "trace.csv", ALARM_TRACE)
    config = _write(tmp_path, "cfg.json", {"format": "table"})

    monkeypatch.setenv("VMSHIELD_CONFIG", config)
    code, out = _run(["detect", "--trace", trace])
    assert code == EXIT_OK
    assert out.startswith("vm_id")  # table header, not JSON

    monkeypatch.setenv("VMSHIELD_FORMAT", "csv")
    _, out = _run(["detect", "--trace", trace])
    assert out.splitlines()[0] == "vm_id,interval,y,action"

    _, out = _run(["--format", "json", "detect", "--trace", trace])
    assert json.loads(out)["alarms"]


def test_seed_env_applies_to_gen(tmp_path, monkeypatch):
    spec = _write(tmp_path, "spec.json",
                  {"vm_id": "v", "mode": "normal", "base_rate": 5,
                   "start": 0, "end": 2, "seed": 1})
    _, base = _run(["gen", "--spec", spec, "--out", "-"])
    monkeypatch.setenv("VMSHIELD_SEED", "99")
    _, via_env = _run(["gen", "--spec", spec, "--out", "-"])
    assert via_env != base
    _, via_flag = _run(["--seed", "99", "gen", "--spec", spec, "--out", "-"])
    assert via_env == via_flag


def test_config_validation_errors(tmp_path, monkeypatch):
    trace = _write(tmp_path, "trace.csv", ALARM_TRACE)
    monkeypatch.setenv("VMSHIELD_SEED", "many")
    assert _run(["detect", "--trace", trace])[0] == EXIT_USAGE
    monkeypatch.delenv("VMSHIELD_SEED")
    monkeypatch.setenv("VMSHIELD_VERBOSITY", "many")
    assert _run(["detect", "--trace", trace])[0] == EXIT_USAGE
    monkeypatch.delenv("VMSHIELD_VERBOSITY")
    monkeypatch.setenv("VMSHIELD_FORMAT", "yaml")
    assert _run(["detect", "--trace", trace])[0] == EXIT_USAGE
    monkeypatch.delenv("VMSHIELD_FORMAT")
    bad_cfg = _write(tmp_path, "cfg.json", {"palette": "mono"})
    assert _run(["--config", bad_cfg, "detect", "--trace", trace])[0] == EXIT_USAGE


def test_verbose_logging_goes_to_stderr(tmp_path, capsys, monkeypatch):
    spec = _write(tmp_path, "spec.json",
                  {"vm_id": "v", "mode": "normal", "base_rate": 2,
                   "start": 0, "end": 1, "seed": 1})
    code, out = _run(["-v", "gen", "--spec", spec, "--out", "-"])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "generated" in err
    assert "generated" not in out
    # without the flag there is no info line; the environment sets the same level
    assert _run(["gen", "--spec", spec, "--out", "-"])[0] == EXIT_OK
    assert "generated" not in capsys.readouterr().err
    monkeypatch.setenv("VMSHIELD_VERBOSITY", "1")
    code, out = _run(["gen", "--spec", spec, "--out", "-"])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "generated" in err
    assert "generated" not in out
