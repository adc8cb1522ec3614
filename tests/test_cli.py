import json
import subprocess
import sys

import pytest

from flatcert.cli import main
from flatcert.engine import GraphDocument, ball
from flatcert.handlebody import SpottedDiskGraph, format_spotted_disk, parse_spotted_disk
from oracles import raw_stern_brocot_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_farey_dist(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "dist", "0/1", "2/5", "--cap", "5")
        assert code == 0 and out.strip() == "2"

    def test_farey_dist_lower_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "farey", "dist", "0/1", "34/55", "--cap", "2", "--height-cap", "110"
        )
        assert code == 0 and out.strip() == ">=3"

    def test_farey_geodesic(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "geodesic", "0/1", "2/5")
        assert code == 0 and out.split() == ["0/1", "1/2", "2/5"]

    def test_omega_dist(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "dist", "0/1@0", "1/2@5", "--cap", "8", "--height-cap", "8"
        )
        assert code == 0 and out.strip() == "5"

    def test_negative_slopes_are_positionals(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "dist", "0/1", "-2/5", "--cap", "5")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(capsys, "farey", "dist", "-2/5", "-1/3")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "farey", "geodesic", "0/1", "-2/5")
        assert code == 0 and out.split() == ["0/1", "-1/2", "-2/5"]

    def test_negative_spotted_arcs_are_positionals(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "dist", "-1/2@-5", "0/1@0", "--cap", "8", "--height-cap", "8"
        )
        assert code == 0 and out.strip() == "5"

    def test_double_dash_still_ends_options(self, capsys):
        code, out, _ = run_cli(capsys, "farey", "dist", "--cap", "5", "--", "0/1", "-2/5")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run_cli(capsys, "omega", "dist", "--", "0/1@0", "-1/2@5")
        assert code == 0 and out.strip() == "5"

    def test_omega_ball_sorted(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "ball", "0/1@0", "1", "--height-cap", "2"
        )
        assert code == 0
        lines = [line.split() for line in out.strip().splitlines()]
        assert lines[0] == ["0/1@0", "0"]
        assert all(d == "1" for _, d in lines[1:])
        # The whole output is the BFS ball sorted by distance, the raw
        # Stern-Brocot key and the twist, in the disk's own text.
        for center, radius, height in (("0/1@0", 1, 2), ("-1/2@-3", 2, 5), ("inf@7", 3, 4)):
            code, out, _ = run_cli(
                capsys, "omega", "ball", "--height-cap", str(height), "--", center, str(radius)
            )
            members = ball(SpottedDiskGraph(height), parse_spotted_disk(center), radius)
            want = sorted(
                members.items(),
                key=lambda item: (item[1], raw_stern_brocot_key((item[0].arc.p, item[0].arc.q)),
                                  item[0].twists),
            )
            assert code == 0
            assert out == "".join(f"{format_spotted_disk(v)} {d}\n" for v, d in want)

    def test_push_variants(self, capsys):
        assert run_cli(capsys, "push", "0/1@0", "5")[1].strip() == "0/1@5"
        assert run_cli(capsys, "push", "0/1@0:full", "3")[1].strip() == "0/1@3:full"
        assert run_cli(capsys, "push", "0/1@1:half", "1")[1].strip() == "0/1@3:half"

    def test_intersection_counts(self, capsys):
        assert run_cli(capsys, "intersect", "annular", "0", "3")[1].strip() == "4"
        assert run_cli(capsys, "sphere", "circles", "0", "3")[1].strip() == "2"


class TestExitCodes:
    def test_usage_error_on_bad_slope(self, capsys):
        code, _, err = run_cli(capsys, "farey", "dist", "x/y", "0/1")
        assert code == 2 and "error" in err

    def test_usage_error_on_underscored_or_non_ascii_digits(self, capsys):
        for argv in (
            ("farey", "dist", "1_0/3", "0/1"),
            ("omega", "dist", "0/1@0", "1/2@１"),
            ("export", "--graph", "sphere", "--center", "0/1@1_0:sph", "--radius", "1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and "error" in err
        for argv in (
            ("sphere", "circles", "1_0", "3"),
            ("intersect", "annular", "２", "0"),
            ("export", "--graph", "omega", "--center", "0/1@0", "--radius", "１"),
            ("farey", "dist", "0/1", "1/3", "--height-cap", "1_0"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "invalid" in captured.err

    def test_usage_error_on_bad_seed(self, capsys):
        code, _, err = run_cli(capsys, "certify-flat", "--seed", "0/1")
        assert code == 2

    def test_budget_exceeded_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "omega", "ball", "0/1@0", "4",
            "--height-cap", "40", "--max-visited", "50",
        )
        assert code == 3 and "budget" in err

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        # 0 searches the center only; a negative budget is refused before
        # any search, whether it comes from the flag or the config file.
        dist = ("omega", "dist", "0/1@0", "1/1@4", "--height-cap", "3")
        export = ("export", "--graph", "omega", "--center", "0/1@0", "--radius", "2")
        for argv in (dist, export):
            code, out, err = run_cli(capsys, *argv, "--max-visited", "-5")
            assert (code, out, err) == (2, "", "error: max-visited must be >= 0, got -5\n")
        cfg = tmp_path / "c.toml"
        cfg.write_text("[defaults]\nmax-visited = -1\n")
        for argv in (dist, export):
            code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
            assert (code, out, err) == (2, "", "error: max-visited must be >= 0, got -1\n")
        assert run_cli(capsys, *dist, "--max-visited", "0")[:2] == (0, "4\n")
        code, out, _ = run_cli(capsys, "omega", "ball", "0/1@0", "0", "--max-visited", "0")
        assert (code, out) == (0, "0/1@0 0\n")

    def test_omega_dist_searches_only_the_farey_factor(self, capsys):
        # BFS over (arc, twist) pairs needs thousands of vertices to reach
        # twist 9; the Farey factor needs one level.
        code, out, _ = run_cli(
            capsys, "omega", "dist", "0/1@0", "1/2@9",
            "--cap", "16", "--height-cap", "32", "--max-visited", "2000",
        )
        assert code == 0 and out.strip() == "9"

    def test_ray_failure_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "certify-flat", "--n", "6", "--height-cap", "8"
        )
        assert code == 3 and "longest certified ray" in err

    def test_geodesic_beyond_cap_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "farey", "geodesic", "0/1", "34/55", "--cap", "2", "--height-cap", "110"
        )
        assert code == 3

    def test_farey_queries_walk_the_ladder_without_spending_budget(self, capsys):
        # BFS at height cap 1000 visits far more than 100 slopes before it
        # reaches 34/55; the ladder walk visits none.
        budget = ("--height-cap", "1000", "--max-visited", "100")
        code, out, _ = run_cli(capsys, "farey", "dist", "0/1", "34/55", *budget)
        assert code == 0 and out.strip() == "5"
        code, out, _ = run_cli(capsys, "farey", "geodesic", "0/1", "34/55", *budget)
        assert code == 0 and out.split() == ["0/1", "1/1", "2/3", "5/8", "13/21", "34/55"]

    def test_suite_failure_is_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "omega", "--inject", "annular-no-offset")
        assert code == 1 and "[FAIL] omega/annular-table" in out


class TestSuiteCommand:
    def test_suite_arc_reports_groups(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "arc")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[PASS]")]
        assert len(lines) >= 4


class TestCertifyCommand:
    def test_writes_certificate_file(self, tmp_path, capsys):
        out_file = tmp_path / "cert.json"
        code, out, err = run_cli(
            capsys, "certify-flat", "--n", "2", "--height-cap", "16",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "flatcert/1"
        assert payload["grid_size"] == 2
        assert "certified 3x3 grid" in err

    def test_stdout_json_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "certify-flat", "--n", "1", "--height-cap", "8")
        assert code == 0
        assert json.loads(out)["model"] == "omega(g=2)"


class TestExportCommand:
    def test_json_export_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "ball.json"
        code, _, _ = run_cli(
            capsys, "export", "--graph", "farey", "--center", "0/1",
            "--radius", "1", "--height-cap", "3", "--out", str(out_file),
        )
        assert code == 0
        doc = GraphDocument.from_json(out_file.read_text())
        assert GraphDocument.from_json(doc.to_json()) == doc
        assert "0/1" in doc.vertices

    def test_dot_export(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--graph", "sphere", "--center", "0/1@0:sph",
            "--radius", "1", "--height-cap", "2", "--format", "dot",
        )
        assert code == 0
        assert out.startswith('graph "sphere(g=2)"')
        assert '"0/1@0:sph"' in out

    def test_export_deterministic_across_processes(self):
        cmd = [
            sys.executable, "-m", "flatcert.cli", "export", "--graph", "omega",
            "--center", "0/1@0", "--radius", "2", "--height-cap", "3",
        ]
        a = subprocess.run(cmd, capture_output=True, text=True, check=True)
        b = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert a.stdout == b.stdout and a.stdout


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "flatcert.toml"
        cfg.write_text("# defaults\n[defaults]\nheight-cap = 110\ncap = 2\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "farey", "dist", "0/1", "34/55"
        )
        assert code == 0 and out.strip() == ">=3"
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "farey", "dist", "0/1", "34/55", "--cap", "12"
        )
        assert code == 0 and out.strip() == "5"

    def test_underscores_normalized(self, tmp_path, capsys):
        cfg = tmp_path / "c.toml"
        cfg.write_text("height_cap = 3\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "farey", "dist", "0/1", "1/3")
        assert code == 0 and out.strip() == "1"

    def test_config_integers_take_only_decimal_spellings(self, tmp_path, capsys):
        cfg = tmp_path / "c.toml"
        for value in ("1_0", "１0", "ten"):
            cfg.write_text(f"height-cap = {value}\n")
            code, out, err = run_cli(
                capsys, "--config", str(cfg), "farey", "dist", "0/1", "1/3"
            )
            assert code == 2 and out == "" and "decimal integer" in err

    def test_bad_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.toml"
        cfg.write_text("height-cap\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "farey", "dist", "0/1", "1/1")
        assert code == 2 and "bad config line" in err
