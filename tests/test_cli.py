"""CLI-level tests: route-gen, replay report, fence startup errors, pub/sub."""

import subprocess
import sys
import time

import pytest

from mqttg.cli import main
from mqttg.routes import load_route, route_length_m


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mqttg.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def parse_report(out: str) -> dict:
    report = {}
    for line in out.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            report[key] = value
    return report


class TestRouteGen:
    def test_equator_file(self, tmp_path):
        path = tmp_path / "route.csv"
        assert main(["route-gen", "--line-equator", "--length", "4900", "--fixes", "10",
                     "-o", str(path)]) == 0
        fixes, meta = load_route(str(path))
        assert len(fixes) == 10
        assert float(meta["total_length_m"]) == 4900.0
        assert route_length_m(fixes) == pytest.approx(4900.0, rel=1e-9)

    def test_circle_header_states_polygon_perimeter(self, tmp_path):
        path = tmp_path / "circle.csv"
        assert main(["route-gen", "--circle", "--radius", "1000", "--fixes", "64",
                     "-o", str(path)]) == 0
        import math

        fixes, meta = load_route(str(path))
        expect = 64 * 2 * 1000.0 * math.sin(math.pi / 64)
        assert float(meta["total_length_m"]) == pytest.approx(expect, rel=1e-12)
        assert route_length_m(fixes) == pytest.approx(expect, rel=1e-6)

    def test_single_fix_usage_error(self, tmp_path, capsys):
        code = main(["route-gen", "--line-equator", "--length", "100", "--fixes", "1",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "2 fixes" in capsys.readouterr().err

    def test_missing_length_usage_error(self, tmp_path):
        code = main(["route-gen", "--line-meridian", "--fixes", "5",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2


class TestBrokerStartup:
    def test_bad_fence_file_names_line(self, tmp_path, capsys):
        fences = tmp_path / "fences.txt"
        fences.write_text("a t static 1,1 1,-1 -1,-1\nbroken\n")
        code = main(["broker", "--port", "0", "--admin-port", "0",
                     "--fences", str(fences)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestPubSubReplay:
    def test_pub_sub_subprocesses(self, broker):
        sub = subprocess.Popen(
            [sys.executable, "-m", "mqttg.cli", "sub",
             "--port", str(broker.port), "-t", "city/traffic",
             "--inside-radius", "5000,49.85,-99.95", "--count", "1",
             "--idle-timeout", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(1.0)  # let it subscribe
        far = run_cli("pub", "--port", str(broker.port), "-t", "city/traffic",
                      "-m", "faraway", "--lat", "0", "--lon", "0", "--elev", "1")
        assert far.returncode == 0
        near = run_cli("pub", "--port", str(broker.port), "-t", "city/traffic",
                       "-m", "jam", "--lat", "49.85", "--lon", "-99.95", "--elev", "400")
        assert near.returncode == 0
        out, err = sub.communicate(timeout=30)
        assert sub.returncode == 0, err
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 1  # the faraway publish was filtered out
        assert lines[0].startswith("city/traffic jam 49.85")

    def test_sub_rejects_both_radius_kinds(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sub", "--port", "1", "-t", "x",
                  "--inside-radius", "5000,0,0", "--outside-radius", "5000,0,0"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_pub_connect_failure_nonzero_exit(self):
        result = run_cli("pub", "--port", "1", "-t", "x", "-m", "y")
        assert result.returncode != 0
        assert "error:" in result.stderr

    def test_replay_reports_distances(self, broker, tmp_path, capsys):
        route = tmp_path / "route.csv"
        assert main(["route-gen", "--line-equator", "--length", "1000", "--fixes", "5",
                     "-o", str(route)]) == 0
        code = main(["replay", str(route), "--port", str(broker.port),
                     "--admin-port", str(broker.admin_port),
                     "--speedup", "1000", "--client-id", "replay-1"])
        out = capsys.readouterr().out
        assert code == 0
        report = parse_report(out)
        assert report["fixes"] == "5"
        broker_distance = float(report["broker_distance_m"])
        client_distance = float(report["client_distance_m"])
        assert broker_distance == pytest.approx(1000.0, rel=1e-6)
        assert broker_distance == pytest.approx(client_distance, rel=1e-9)
        assert float(report["route_relative_error"]) < 1e-6
        assert report["speed_note"] == "compressed_x1000"

    def test_replay_is_deterministic_across_runs(self, broker, tmp_path, capsys):
        route = tmp_path / "route.csv"
        assert main(["route-gen", "--line-meridian", "--length", "2500", "--fixes", "7",
                     "-o", str(route)]) == 0
        distances = []
        for _ in range(2):
            assert main(["replay", str(route), "--port", str(broker.port),
                         "--admin-port", str(broker.admin_port),
                         "--speedup", "1000", "--client-id", "det-run"]) == 0
            report = parse_report(capsys.readouterr().out)
            distances.append(float(report["broker_distance_m"]))
        assert distances[0] == pytest.approx(distances[1], rel=1e-9)

    def test_replay_single_fix_route(self, broker, tmp_path, capsys):
        route = tmp_path / "one.csv"
        route.write_text("0,10.0,20.0,0\n")
        code = main(["replay", str(route), "--port", str(broker.port),
                     "--admin-port", str(broker.admin_port), "--client-id", "solo"])
        assert code == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["broker_distance_m"]) == 0.0
        assert float(report["client_distance_m"]) == 0.0

    def test_replay_malformed_route_aborts_with_line(self, broker, tmp_path, capsys):
        route = tmp_path / "bad.csv"
        route.write_text("0,0,0,0\nnot-a-fix\n")
        code = main(["replay", str(route), "--port", str(broker.port)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err
