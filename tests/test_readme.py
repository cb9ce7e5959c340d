"""The README's library sketch runs as printed, and its exit codes are the CLI's."""

import re
from pathlib import Path

from fracorlicz.cli import VERDICT_EXIT

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_verdict_exit_codes_match_cli():
    rows = re.findall(r"^\| `([A-Z]+)` \| (\d) \|", README.read_text(encoding="utf-8"), re.M)
    assert {verdict: int(code) for verdict, code in rows} == VERDICT_EXIT
    assert len(rows) == len(VERDICT_EXIT)


def test_readme_coarse_schedule_counts_match_the_paper_solve(monkeypatch):
    # the solver paragraph quotes the coarse-level passes of the n = 200
    # paper solve with and without the predicted starts; rounding across
    # platforms may move a count by a pass or two, a stale figure by more
    import fracorlicz.solver as solver
    from fracorlicz.grid import GridFunction, Mesh
    from fracorlicz.nfunctions import power_nfunction

    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.findall(r"coarse schedule from (\d+) to (\d+) pair passes", text)
    assert len(quoted) == 1
    mesh = Mesh(0.0, 1.0, 200)
    spec = solver.ProblemSpec(G=power_nfunction(3.0), s=0.5, alpha=0.5, beta=0.5,
                              f=GridFunction.constant(mesh, 1.0),
                              k=GridFunction.constant(mesh, 1.0),
                              epsilon0=1e-2, epsilon_min=1e-6)

    def coarse_passes():
        res = solver.solve_singular(spec, tol=1e-9)
        assert res.converged
        coarsest = min(st.cells for st in res.stages)
        return sum(st.pair_passes for st in res.stages if st.cells == coarsest)

    predicted = coarse_passes()
    monkeypatch.setattr(solver, "PREDICTOR_POINTS", 1)   # start from the previous solution
    previous = coarse_passes()
    for count, figure in zip((previous, predicted), map(int, quoted[0])):
        assert abs(count - figure) <= 0.02 * figure
    assert predicted < previous
