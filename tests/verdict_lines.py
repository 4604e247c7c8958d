"""Seeded verdict lines, for checking that two versions of the encoders
give the same verdicts.

    python tests/verdict_lines.py N [SEED]

draws N random models (1-3 state bits, 0-2 fairness sets) from ``SEED``
(default 1), each with one future and one past formula, and runs every
pair through ``check.run_bmc``: every scheme, with ``incremental`` on and
off, ``d_max`` None, 0 and 1, increments 1 and 2, and ``--complete`` on the
``pltl`` and ``eventuality`` sessions; 144 runs per model.  Each run prints
one line: the model's index, the formula, the scheme, the driver option,
``d_max``, the increment, the completeness flag, then the verdict line, or
the class name of the exception the run raised.  After the runs of a
(model, formula) pair, one more line has ``oracle`` in the scheme column
and ``-`` in the option columns, then the verdict line of
``oracle.minimal_witness_k`` at ``MAX_K``: the smallest bound with a
bounded witness on any path, which reads no FAIRNESS line.  Two versions
agree when their outputs are equal:

    diff <(python old/tests/verdict_lines.py 100) <(python tests/verdict_lines.py 100)

With the ``oracle`` lines removed, the output equals that of a version
from before they were added:

    python tests/verdict_lines.py 100 | grep -vP '\\toracle\\t'

The script imports the package from the ``src`` directory beside its own
``tests`` directory, so a copy of the script in another checkout runs that
checkout's code.  Pytest does not collect it.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pltlbmc.check import SCHEMES, RunOptions, run_bmc, verdict_line
from pltlbmc.model import explicit_expand
from pltlbmc.oracle import minimal_witness_k

from _grid import random_pnf_formula, random_symbolic_model

MAX_K = 5
COMPLETE_SCHEMES = ("eventuality", "pltl")


def configurations():
    """(scheme, incremental, d_max, increment, completeness) of every run
    of one formula, in output order."""
    for scheme in sorted(SCHEMES):
        for incremental in (True, False):
            for d_max in (None, 0, 1):
                for increment in (1, 2):
                    yield scheme, incremental, d_max, increment, False
                    if incremental and scheme in COMPLETE_SCHEMES:
                        yield scheme, incremental, d_max, increment, True


def runs(n, seed):
    rng = random.Random(seed)
    for index in range(n):
        m = random_symbolic_model(rng, bits=rng.randint(1, 3), fair_sets=rng.randint(0, 2))
        atoms = list(m.vars)
        formulas = (
            random_pnf_formula(rng, atoms, max_cl=6, allow_past=False),
            random_pnf_formula(rng, atoms, max_cl=6, max_delta=2),
        )
        for psi in formulas:
            for scheme, incremental, d_max, increment, complete in configurations():
                opts = RunOptions(
                    scheme=scheme,
                    d_max=d_max,
                    incremental=incremental,
                    completeness=complete,
                    max_k=MAX_K,
                    increment=increment,
                )
                try:
                    outcome = verdict_line(run_bmc(m, psi, opts))
                except Exception as exc:
                    outcome = type(exc).__name__
                driver = "incremental" if incremental else "monolithic"
                complete_flag = "--complete" if complete else "-"
                yield f"m{index}\t{psi}\t{scheme}\t{driver}\td_max={d_max}\tinc={increment}\t{complete_flag}\t{outcome}"
            yield f"m{index}\t{psi}\toracle\t-\t-\t-\t-\t{oracle_outcome(m, psi)}"


def oracle_outcome(m, psi):
    try:
        k = minimal_witness_k(explicit_expand(m), psi, MAX_K)
    except Exception as exc:
        return type(exc).__name__
    return f"VERDICT UNKNOWN max_k={MAX_K}" if k is None else f"VERDICT WITNESS k={k}"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    n = int(argv[1])
    seed = int(argv[2]) if len(argv) == 3 else 1
    for line in runs(n, seed):
        print(line)


if __name__ == "__main__":
    main(sys.argv)
