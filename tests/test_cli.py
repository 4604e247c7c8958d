import json
import os
import random
import sys
import tempfile
import time

import pytest

from pltlbmc import check
from pltlbmc.check import SCHEMES, RunOptions, scheme_model
from pltlbmc.cli import _write_var_map, main
from pltlbmc.encode import TimedVarMap
from pltlbmc.model import model_to_text, parse_model
from pltlbmc.pltl import closure, format_formula, parse_formula, s_not, to_pnf
from pltlbmc.sat import Solver, parse_dimacs, run_external_solver

from _fixtures import FIXTURES
from _grid import random_pnf_formula

COUNTER = str(FIXTURES / "counter.mod")
COUNTER_FAIR = str(FIXTURES / "counter_fair.mod")

# TRANS lines conjoin left-deep, so this model's TRANS is a chain 3000 deep.
LONG_MODEL = "\n".join(
    ["VAR a b", "INIT !a & !b"] + ["TRANS next(a) -> (a | !a)", "TRANS next(b) <-> a"] * 1500
) + "\n"

# The FAIRNESS line is one conjunction 3000 deep.
WIDE_FAIRNESS_MODEL = (
    "VAR a b\nINIT !a & !b\nTRANS next(a) <-> b\nTRANS next(b) <-> !a\nFAIRNESS "
    + " & ".join(["(a | b)"] * 3000)
    + "\n"
)

# d1499 unfolds to a disjunction 1500 deep.
CHAIN_DEFINES = ["DEFINE d0 := a"] + [f"DEFINE d{i} := d{i - 1} | b" for i in range(1, 1500)]


def chain_model(defines):
    head = ["VAR a b", "INIT !a & !b", "TRANS next(a) <-> b", "TRANS next(b) <-> !a"]
    return "\n".join(head + defines + ["FAIRNESS d1499"]) + "\n"


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

    def test_a_malformed_spec_line_gives_its_place_in_the_file(self, capsys, tmp_path):
        path = tmp_path / "bad.mod"
        path.write_text("VAR a\nINIT a\nTRANS next(a) <-> a\nSPEC G (a &)\n")
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert "expected a formula, got ')' (line 4, column 12)" in err

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

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_json_trace_shows_the_model_variables(self, capsys, scheme):
        """The JSON trace names the model's variables, as the ``state i:``
        lines do, also where the scheme unrolls a product with an
        automaton, and holds the same values."""
        argv = ["check", COUNTER, "--spec", "!(G F x4)", "--scheme", scheme, "--max-k", "10", "--emit-json"]
        code, out, _ = run(capsys, argv)
        lines = out.splitlines()
        trace = json.loads(lines[-1])["trace"]
        states = [line for line in lines if line.startswith("state ")]
        assert code == 1 and len(states) == len(trace) == 7
        for i, (line, state) in enumerate(zip(states, trace)):
            assert list(state) == ["b0", "b1", "b2"]
            assert line == f"state {i}: " + " ".join(f"{n}={int(v)}" for n, v in state.items())

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

    @pytest.mark.parametrize(
        "output, message",
        [
            ("s SATISFIABLE\nv 1 -2 x3 0\n", "malformed value line: 'v 1 -2 x3 0'"),
            ("c no verdict\nv 1 -2 0\n", "external solver produced no verdict"),
            # var 1 is the constant true and var 2 is a at time 0
            ("s SATISFIABLE\nv 1 2 0\n", "decoded path does not start in an initial state"),
        ],
    )
    def test_malformed_external_solver_output_is_an_error(self, capsys, tmp_path, output, message):
        model = tmp_path / "m.mod"
        model.write_text("VAR a\nINIT !a\nTRANS next(a) <-> a\n")
        solver = tmp_path / "fake_solver.py"
        solver.write_text(f"import sys\nsys.stdout.write({output!r})\n")
        argv = ["check", str(model), "--spec", "G a", "--solver", "external", sys.executable, str(solver)]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_every_scheme_runs(self, capsys):
        for scheme in ("fixpoint", "eventuality", "buchi", "pltl", "general-buchi"):
            code, out, _ = run(
                capsys,
                ["check", COUNTER, "--spec", "!(G F x4)", "--scheme", scheme, "--max-k", "7"],
            )
            assert code == 1 and "k=6" in out.splitlines()[0], scheme

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("spec", ["X nosuch", "G (x0 | X nosuch)"])
    def test_an_undeclared_atom_is_an_error(self, capsys, tmp_path, scheme, spec):
        """Every scheme rejects an atom the model does not declare with one
        message, incremental or not, and ``encode`` too, also where no
        lowering reaches the atom (fixpoint at k=0)."""
        message = "error: atom 'nosuch' is neither a variable nor a define"
        for flags in ([], ["--no-incremental"]):
            code, out, err = run(
                capsys, ["check", COUNTER, "--scheme", scheme, "--spec", spec, "--max-k", "0"] + flags
            )
            assert code == 3 and message in err and "VERDICT" not in out
        out_cnf = tmp_path / "o.cnf"
        code, _, err = run(
            capsys, ["encode", COUNTER, "--scheme", scheme, "--spec", spec, "-k", "0", "-o", str(out_cnf)]
        )
        assert code == 3 and message in err and not out_cnf.exists()

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

    def test_an_undeclared_atom_is_an_error(self, capsys):
        """Also where the left operand of ``|`` already decides the value
        at the last position of a loop-free path."""
        code, out, err = run(capsys, ["oracle", COUNTER, "--spec", "!(x0 | nosuch)"])
        assert code == 3 and "error: atom 'nosuch' is not a label of the model" in err
        assert "VERDICT" not in out

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
        vm = TimedVarMap(Solver())
        vm.solver.add_clause([SCHEMES[scheme].encode(scheme_model(m, psi, opts), psi, 3, vm)])
        assert parse_dimacs(open(out_cnf).read()) == (vm.solver.nvars, vm.solver.db)

    def test_map_lists_positions_in_numeric_order(self, capsys, tmp_path):
        out_cnf = str(tmp_path / "out.cnf")
        code, _, err = run(capsys, ["encode", COUNTER, "--spec", "G !p7", "-k", "11", "-o", out_cnf])
        assert code == 0, err
        # a line is: role, subformula or chain, position, depth, state bit, variable
        groups = {}
        for line in open(out_cnf + ".map"):
            row = line.split()
            if row[0] not in ("#", "loopexists"):
                groups.setdefault((row[0], row[1]), []).append(int(row[2]))
        assert {role for role, _ in groups} >= {"state", "loopsel", "inloop", "formula", "aux_F"}
        for positions in groups.values():
            assert positions == sorted(positions)
        assert list(dict.fromkeys(groups["state", "-"])) == list(range(12))

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", COUNTER, "--dmax", "abc"],
            ["encode", COUNTER, "--dmax", "abc", "-k", "3", "-o", "unused.cnf"],
            ["tightba", "F (p & Y q)", "--dmax", "abc"],
            ["check", COUNTER, "--dmax", "-1"],
            ["check", COUNTER, "--dmax", "-1", "--no-incremental"],
            ["check", COUNTER, "--dmax", "-1", "--scheme", "general-buchi"],
            ["encode", COUNTER, "--dmax", "-1", "-k", "3", "-o", "unused.cnf"],
            ["tightba", "F (p & Y q)", "--dmax", "-1"],
        ],
    )
    def test_malformed_dmax_names_the_flag(self, capsys, argv):
        code, out, err = run(capsys, argv)
        value = argv[argv.index("--dmax") + 1]
        assert code == 3 and "VERDICT" not in out
        assert err == f"error: --dmax expects a non-negative integer or 'full', got {value!r}\n"


class TestDeepExpressions:
    """Fairness lines and define chains far deeper than the recursion limit."""

    def l2s_output(self, capsys, tmp_path, text):
        path = tmp_path / "deep.mod"
        path.write_text(text)
        code, out, err = run(capsys, ["l2s", str(path)])
        assert code == 0, err
        m = parse_model(out)
        assert m.spec_text == "G !LoopClosed" and model_to_text(m) == out
        return m

    def test_l2s_on_a_fairness_line_with_thousands_of_terms(self, capsys, tmp_path):
        m = self.l2s_output(capsys, tmp_path, WIDE_FAIRNESS_MODEL)
        assert m.vars == ("a", "b", "l2s_copy_a", "l2s_copy_b", "l2s_save", "l2s_inloop", "l2s_acc0")

    def test_l2s_on_a_deep_define_chain(self, capsys, tmp_path):
        m = self.l2s_output(capsys, tmp_path, chain_model(CHAIN_DEFINES))
        assert len(m.defines) == 1501

    def test_general_buchi_on_a_deep_define_chain(self, capsys, tmp_path):
        # the chain's last define means a | b, as the one define of the short model
        outs = []
        for defines in (CHAIN_DEFINES, ["DEFINE d1499 := a | b"]):
            path = tmp_path / "chain.mod"
            path.write_text(chain_model(defines))
            code, out, err = run(capsys, ["check", str(path), "--scheme", "general-buchi", "--spec", "G X !d1499"])
            assert code == 1, err
            outs.append(out)
        assert outs[0] == outs[1] and outs[0].startswith("VERDICT WITNESS k=4")

    def test_oracle_on_a_deep_define_chain(self, capsys, tmp_path):
        # the expansion labels each define once, so the chain costs linear time
        path = tmp_path / "chain.mod"
        path.write_text(chain_model(CHAIN_DEFINES))
        start = time.perf_counter()
        code, out, err = run(capsys, ["oracle", str(path), "--spec", "G X !d1499"])
        assert time.perf_counter() - start < 2.0
        assert code == 1, err
        assert out.startswith("VERDICT WITNESS k=1")

    def test_a_define_chain_written_in_reverse_order(self, capsys, tmp_path):
        m = self.l2s_output(capsys, tmp_path, chain_model(CHAIN_DEFINES[::-1]))
        assert [n for n, _ in m.defines[:2]] == ["d1499", "d1498"]

    def test_check_on_a_spec_with_thousands_of_terms(self, capsys, tmp_path):
        # the spec is one conjunction 1500 deep; a | b is false in the initial state
        path = tmp_path / "two.mod"
        path.write_text(chain_model([]).replace("FAIRNESS d1499\n", ""))
        spec = " & ".join(["(a | b)"] * 1500)
        for flags in ([], ["--complete"]):
            code, out, err = run(capsys, ["check", str(path), "--spec", spec] + flags)
            assert code == 1, err
            assert out.startswith("VERDICT WITNESS k=0")

    def test_fixpoint_on_a_spec_with_thousands_of_terms(self, capsys, tmp_path):
        # the fixpoint translation walks the 1500 nested conjunctions
        path = tmp_path / "two.mod"
        path.write_text(chain_model([]).replace("FAIRNESS d1499\n", ""))
        spec = " & ".join(["(a | b)"] * 1500)
        for flags in (["--scheme", "fixpoint"], ["--scheme", "fixpoint", "--increment", "2"]):
            code, out, err = run(capsys, ["check", str(path), "--spec", spec] + flags)
            assert code == 1, err
            assert out.startswith("VERDICT WITNESS k=0")

    def test_oracle_on_a_spec_with_thousands_of_terms(self, capsys, tmp_path):
        # the bounded semantics evaluates the 1500 nested conjunctions
        path = tmp_path / "two.mod"
        path.write_text(chain_model([]).replace("FAIRNESS d1499\n", ""))
        spec = " & ".join(["(a | b)"] * 1500)
        code, out, err = run(capsys, ["oracle", str(path), "--spec", spec])
        assert code == 1, err
        assert out.startswith("VERDICT WITNESS k=0")
        # no witness: the conjunction is evaluated wherever b holds, on
        # every path up to the bound
        code, out, err = run(capsys, ["oracle", str(path), "--spec", f"G (b -> {spec})", "--max-k", "4"])
        assert code == 2, err
        assert out.startswith("VERDICT UNKNOWN max_k=4")

    def test_general_buchi_on_a_spec_with_thousands_of_terms(self, capsys, tmp_path):
        # the tight automaton defines each of the 1500 nested disjunctions;
        # the model's shortest loop has four states
        path = tmp_path / "two.mod"
        path.write_text(chain_model([]).replace("FAIRNESS d1499\n", ""))
        spec = " & ".join(["(a | b)"] * 1500)
        for flags in ([], ["--no-incremental"], ["--dmax", "1"]):
            code, out, err = run(capsys, ["check", str(path), "--scheme", "general-buchi", "--spec", spec] + flags)
            assert code == 1, err
            assert out.startswith("VERDICT WITNESS k=4")


class TestDeepSpecs:
    """Specs and expressions nested far deeper than the recursion limit: a
    right-associated until chain parses, prints and gets a verdict."""

    CHAIN = " U ".join(["x0"] * 1500)

    def test_check(self, capsys):
        code, out, err = run(capsys, ["check", COUNTER, "--spec", self.CHAIN, "--max-k", "2"])
        assert code == 2, err
        assert out.startswith("VERDICT UNKNOWN max_k=2")
        code, out, err = run(capsys, ["check", COUNTER, "--spec", self.CHAIN.replace("x0", "x1")])
        assert code == 1, err
        assert out.startswith("VERDICT WITNESS k=0")

    def test_encode_writes_every_subformula_to_the_map(self, capsys, tmp_path):
        cnf = str(tmp_path / "deep.cnf")
        code, _, err = run(capsys, ["encode", COUNTER, "--spec", f"x1 & !({self.CHAIN})", "-k", "1", "-o", cnf])
        assert code == 0, err
        phis = [line for line in open(cnf + ".map") if line.startswith("# phi ")]
        assert len(phis) == 1502 and f" {self.CHAIN}\n" in phis[-2]

    def test_each_map_line_is_the_text_of_its_subformula(self, tmp_path):
        rng = random.Random(29)
        path = tmp_path / "f.map"
        for _ in range(60):
            psi = random_pnf_formula(rng, ["a", "b", "c"], max_cl=12)
            _write_var_map(path, TimedVarMap(Solver()), psi)
            phis = [line for line in path.read_text().splitlines() if line.startswith("# phi ")]
            assert phis == [f"# phi {n} {format_formula(f)}" for n, f in enumerate(closure(psi))]

    def test_tightba(self, capsys):
        code, out, err = run(capsys, ["tightba", f"F ({self.CHAIN})"])
        assert code == 0, err
        assert len(parse_model(out).vars) > 1500

    def test_oracle(self, capsys):
        code, out, err = run(capsys, ["oracle", COUNTER, "--spec", self.CHAIN])
        assert code == 2, err
        assert out.startswith("VERDICT UNKNOWN max_k=8")

    def test_check_on_a_model_with_a_deep_init(self, capsys, tmp_path):
        path = tmp_path / "deep.mod"
        path.write_text("VAR a\nINIT " + " -> ".join(["!a"] * 1500) + "\nTRANS next(a) <-> !a\n")
        code, out, err = run(capsys, ["check", str(path), "--spec", "G !a"])
        assert code == 1, err
        assert out.startswith("VERDICT WITNESS k=0")

    def test_malformed_deep_input_gives_its_line_and_column(self, capsys, tmp_path):
        code, _, err = run(capsys, ["check", COUNTER, "--spec", "(" * 1500 + "\n  x0 U"])
        assert code == 3
        assert "expected a formula, got 'end of input' (line 2, column 7)" in err
        path = tmp_path / "bad.mod"
        path.write_text("VAR a\nINIT " + "(" * 1500 + "a ) )\n")
        code, _, err = run(capsys, ["check", str(path), "--spec", "G a"])
        assert code == 3
        assert "line 2, column 1511: expected ')', got 'end of line'" in err


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

    # an atom named like an and/or define of the automaton, and a word of
    # the model grammar, would give a model file that does not parse
    @pytest.mark.parametrize("formula, atom", [("F (ba3d0 & q)", "ba3d0"), ("F next", "next")])
    def test_tightba_rejects_an_atom_it_cannot_write(self, capsys, formula, atom):
        code, out, err = run(capsys, ["tightba", formula])
        assert code == 3 and out == ""
        assert f"'{atom}'" in err

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
