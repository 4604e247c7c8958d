import json
import os
import sys
import tempfile

import pytest

from pltlbmc import check
from pltlbmc.check import SCHEMES, RunOptions, scheme_model
from pltlbmc.cli import main
from pltlbmc.encode import TimedVarMap
from pltlbmc.model import model_to_text, parse_model
from pltlbmc.pltl import parse_formula, s_not, to_pnf
from pltlbmc.sat import CircuitBuilder, Solver, parse_dimacs, run_external_solver

from _fixtures import FIXTURES

COUNTER = str(FIXTURES / "counter.mod")
COUNTER_FAIR = str(FIXTURES / "counter_fair.mod")

# TRANS lines conjoin left-deep, so this model's TRANS is a chain 3000 deep.
LONG_MODEL = "\n".join(
    ["VAR a b", "INIT !a & !b"] + ["TRANS next(a) -> (a | !a)", "TRANS next(b) <-> a"] * 1500
) + "\n"

EXTERNAL = [sys.executable, os.path.join(os.path.dirname(__file__), "external_dpll.py")]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_running_example_via_spec_flag(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "check",
                COUNTER,
                "--spec",
                "!(F (x3 & O (x4 & O x5)))",
                "--scheme",
                "pltl",
                "--dmax",
                "full",
                "--max-k",
                "8",
            ],
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "VERDICT WITNESS k=6"
        assert "-- loop starts here --" in lines
        assert lines[-1] == "state 6: b0=0 b1=1 b2=0"

    def test_spec_line_from_the_model_file(self, capsys):
        code, out, _ = run(capsys, ["check", COUNTER, "--max-k", "8"])
        assert code == 1 and out.startswith("VERDICT WITNESS k=6")

    def test_complete_proves(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", COUNTER, "--spec", "G !p7", "--complete", "--max-k", "30"],
        )
        assert code == 0
        assert out.splitlines()[0] == "VERDICT PROVED k=10"

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(capsys, ["check", COUNTER, "--spec", "G !p7", "--max-k", "2"])
        assert code == 2 and out.startswith("VERDICT UNKNOWN max_k=2")

    def test_missing_spec_errors(self, capsys):
        code, _, err = run(capsys, ["check", COUNTER_FAIR])
        assert code == 3 and "no specification" in err

    def test_bad_model_path(self, capsys):
        code, _, err = run(capsys, ["check", str(FIXTURES / "nope.mod"), "--spec", "G true"])
        assert code == 3

    def test_a_model_with_thousands_of_trans_lines(self, capsys, tmp_path):
        """TRANS lines conjoin left-deep; lowering them and validating the
        witness walk the chain without recursion."""
        path = tmp_path / "long.mod"
        path.write_text(LONG_MODEL)
        code, out, _ = run(capsys, ["check", str(path), "--spec", "G !b"])
        assert code == 1 and out.splitlines()[0] == "VERDICT WITNESS k=2"

    def test_emit_json(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", COUNTER, "--spec", "G !x4", "--max-k", "6", "--emit-json"],
        )
        assert code == 1
        record = json.loads(out.splitlines()[-1])
        assert record["verdict"] == "witness" and record["k"] == 4
        assert record["loop_start"] is None

    def test_external_solver(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "check",
                COUNTER,
                "--spec",
                "G !x2",
                "--scheme",
                "eventuality",
                "--max-k",
                "4",
                "--solver",
                "external",
                *EXTERNAL,
            ],
        )
        assert code == 1 and out.startswith("VERDICT WITNESS k=2")

    def test_external_solver_files_are_removed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        paths = []

        def spy(cmd, path):
            paths.append(path)
            return run_external_solver(cmd, path)

        monkeypatch.setattr(check, "run_external_solver", spy)
        argv = ["check", COUNTER, "--spec", "G !x2", "--scheme", "eventuality", "--max-k", "4"]
        code, out, _ = run(capsys, [*argv, "--solver", "external", *EXTERNAL])
        assert code == 1 and len(paths) == 3
        # each CNF lived in a private directory under the temp root, now gone
        assert all(os.path.dirname(os.path.dirname(p)) == str(tmp_path) for p in paths)
        assert not any(tmp_path.iterdir())

    def test_every_scheme_runs(self, capsys):
        for scheme in ("fixpoint", "eventuality", "buchi", "pltl", "general-buchi"):
            code, out, _ = run(
                capsys,
                ["check", COUNTER, "--spec", "!(G F x4)", "--scheme", scheme, "--max-k", "7"],
            )
            assert code == 1 and "k=6" in out.splitlines()[0], scheme

    def test_check_and_oracle_agree_on_the_fixtures(self, capsys):
        specs = ["G !x4", "!(G F x4)", "G !p7", "!(F (x3 & O (x4 & O x5)))"]
        for spec in specs:
            ocode, oout, _ = run(capsys, ["oracle", COUNTER, "--spec", spec, "--max-k", "6"])
            schemes = ["pltl"]
            if "O" not in spec:
                schemes.extend(["fixpoint", "eventuality", "buchi", "general-buchi"])
            for scheme in schemes:
                ccode, cout, _ = run(
                    capsys,
                    ["check", COUNTER, "--spec", spec, "--scheme", scheme, "--max-k", "6"],
                )
                assert (ccode == 1) == (ocode == 1), (spec, scheme)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dmax", "-1"], "d_max"),
            (["--dmax", "-1", "--no-incremental"], "d_max"),
            (["--dmax", "-1", "--scheme", "general-buchi"], "d_max"),
            (["--max-k", "-1"], "max_k"),
            (["--increment", "0"], "increment"),
            (["--increment", "-2"], "increment"),
            pytest.param(["encode", "-k", "-1"], "k must", id="encode-k"),
            pytest.param(["oracle", "--max-k", "-3"], "max_k", id="oracle-max_k"),
        ],
    )
    def test_out_of_range_bounds_are_errors(self, capsys, tmp_path, flags, message):
        # flags without a subcommand go to ``check``
        if flags[0] not in ("encode", "oracle"):
            flags = ["check", "--max-k", "8", *flags]
        if flags[0] == "encode":
            flags = [*flags, "-o", str(tmp_path / "o.cnf")]
        spec = "!(F (x3 & O (x4 & O x5)))"
        code, out, err = run(capsys, [flags[0], COUNTER, "--spec", spec, *flags[1:]])
        assert code == 3 and message in err and "VERDICT" not in out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--no-such-flag"], "unrecognized arguments"),
            (["--max-k", "x"], "invalid int value"),
            pytest.param(["--force-stabilise"], "unrecognized arguments", id="force-stabilise"),
            pytest.param(
                ["--no-release-acceptance"], "unrecognized arguments", id="no-release-acceptance"
            ),
        ],
    )
    def test_usage_errors_exit_3(self, capsys, flags, message):
        # argparse's own status 2 would read as an UNKNOWN verdict
        with pytest.raises(SystemExit) as exc:
            main(["check", COUNTER, *flags])
        assert exc.value.code == 3 and message in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out

    def test_dmax_zero_needs_a_longer_bound(self, capsys):
        code, out, _ = run(capsys, ["check", COUNTER, "--dmax", "0", "--max-k", "8"])
        assert code == 2
        code, out, _ = run(capsys, ["check", COUNTER, "--dmax", "0", "--max-k", "11"])
        assert code == 1 and out.startswith("VERDICT WITNESS k=11")


class TestOracle:
    def test_agrees_with_check(self, capsys):
        code, out, _ = run(capsys, ["oracle", COUNTER, "--max-k", "6"])
        assert code == 1 and out.startswith("VERDICT WITNESS k=6")

    def test_unknown(self, capsys):
        code, out, _ = run(capsys, ["oracle", COUNTER, "--spec", "G !p7", "--max-k", "5"])
        assert code == 2 and out.startswith("VERDICT UNKNOWN max_k=5")

    def test_a_model_with_thousands_of_trans_lines(self, capsys, tmp_path):
        """The oracle's expansion evaluates the chain without recursion and
        agrees with ``check``."""
        path = tmp_path / "long.mod"
        path.write_text(LONG_MODEL)
        code, out, _ = run(capsys, ["oracle", str(path), "--spec", "G !b"])
        assert code == 1 and out.splitlines()[0] == "VERDICT WITNESS k=2"


class TestEncode:
    def test_writes_dimacs_and_map(self, capsys, tmp_path):
        out_cnf = str(tmp_path / "out.cnf")
        code, out, _ = run(
            capsys,
            ["encode", COUNTER, "--scheme", "pltl", "-k", "6", "-o", out_cnf],
        )
        assert code == 0
        nvars, clauses = parse_dimacs(open(out_cnf).read())
        assert nvars > 0 and clauses
        map_lines = open(out_cnf + ".map").read().splitlines()
        assert any(line.startswith("state - 0 - b0 ") for line in map_lines)
        assert any(line.startswith("loopsel") for line in map_lines)
        assert any(line.startswith("formula") for line in map_lines)

    def test_exported_file_is_satisfiable_exactly_when_check_finds_a_witness(
        self, capsys, tmp_path
    ):
        import subprocess

        for k, expected in ((5, 20), (6, 10)):
            out_cnf = str(tmp_path / f"k{k}.cnf")
            code, _, _ = run(
                capsys, ["encode", COUNTER, "-k", str(k), "-o", out_cnf]
            )
            assert code == 0
            proc = subprocess.run(
                EXTERNAL + [out_cnf], capture_output=True, text=True
            )
            assert proc.returncode == expected

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_dimacs_is_the_scheme_table_encoding(self, capsys, tmp_path, scheme):
        spec = "!(G F x4)"
        out_cnf = str(tmp_path / "out.cnf")
        code, _, _ = run(
            capsys,
            ["encode", COUNTER, "--spec", spec, "--scheme", scheme, "-k", "3", "-o", out_cnf],
        )
        assert code == 0
        m = parse_model(open(COUNTER).read())
        psi = to_pnf(s_not(parse_formula(spec)))
        opts = RunOptions(scheme=scheme)
        s = Solver()
        b = CircuitBuilder(s)
        vm = TimedVarMap(b)
        s.add_clause([SCHEMES[scheme](scheme_model(m, psi, opts), psi, 3, b, vm)])
        assert parse_dimacs(open(out_cnf).read()) == (s.nvars, s.db)

    def test_negative_dmax_is_an_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["encode", COUNTER, "--dmax", "-1", "-k", "3", "-o", str(tmp_path / "o.cnf")]
        )
        assert code == 3 and "d_max" in err
        code, _, err = run(capsys, ["tightba", "F (p & Y q)", "--dmax", "-1"])
        assert code == 3 and "d_max" in err


class TestPipelines:
    def test_l2s_output_checks_with_bmc(self, capsys, tmp_path):
        out_mod = str(tmp_path / "l2s.mod")
        code, _, _ = run(capsys, ["l2s", COUNTER_FAIR, "-o", out_mod])
        assert code == 0
        m = parse_model(open(out_mod).read())
        assert m.spec_text == "G !LoopClosed"
        code, out, _ = run(capsys, ["check", out_mod, "--max-k", "8"])
        assert code == 1 and out.startswith("VERDICT WITNESS k=6")

    def test_tightba_output_feeds_general_buchi(self, capsys, tmp_path):
        out_mod = str(tmp_path / "ba.mod")
        code, _, _ = run(
            capsys, ["tightba", "F (x3 & O (x4 & O x5))", "-o", out_mod]
        )
        assert code == 0
        ba = parse_model(open(out_mod).read())
        assert len(ba.fairness) >= 1
        assert "ba_inloop" in ba.vars and "ba_le" in ba.vars

    def test_l2s_to_stdout(self, capsys):
        code, out, _ = run(capsys, ["l2s", COUNTER_FAIR])
        assert code == 0 and "VAR" in out and "LoopClosed" in out

    def test_l2s_prints_a_model_with_thousands_of_trans_lines(self, capsys, tmp_path):
        path = tmp_path / "long.mod"
        path.write_text(LONG_MODEL)
        code, out, _ = run(capsys, ["l2s", str(path)])
        assert code == 0
        m = parse_model(out)
        assert m.spec_text == "G !LoopClosed" and len(m.vars) == 6
        assert model_to_text(m) == out
