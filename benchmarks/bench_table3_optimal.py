"""Table III: brute-force optimal OAP solution on Syn A per budget.

Paper reference (Table III): objective falls monotonically from 12.2945
at B=2 (thresholds [1,1,1,1]) to -8.1561 at B=20 ([9,7,6,6]).  The
record's ``paper_gap`` holds measured minus paper per budget; README's
"Deviations from the paper" section tabulates it.
"""

from conftest import emit, pick, write_bench_json

from repro.analysis import run_table3
from repro.datasets import SYN_A_BUDGETS

FAST_BUDGETS = (2, 6, 10)
SMOKE_BUDGETS = (2, 6)

PAPER_OBJECTIVES = {
    2: 12.2945, 4: 7.7176, 6: 3.2651, 8: -0.4517, 10: -2.1314,
    12: -3.7345, 14: -5.1645, 16: -6.4510, 18: -7.4649, 20: -8.1561,
}


def test_table3_optimal(benchmark):
    budgets = pick(
        smoke=SMOKE_BUDGETS, fast=FAST_BUDGETS, full=SYN_A_BUDGETS
    )

    result = benchmark.pedantic(
        lambda: run_table3(budgets=budgets), rounds=1, iterations=1
    )
    wall = benchmark.stats.stats.total

    objectives = result.objectives()
    paper = [PAPER_OBJECTIVES[int(b)] for b in budgets]
    paper_gap = [
        float(o) - p for o, p in zip(objectives, paper, strict=True)
    ]
    lines = [result.to_text(), "", "paper-vs-measured objective:"]
    for row, p, gap in zip(result.rows, paper, paper_gap, strict=True):
        lines.append(
            f"  B={row.budget:4.0f}  paper {p:9.4f}   "
            f"measured {row.objective:9.4f}   gap {gap:+8.4f}"
        )
    emit("Table III — optimal auditing policy (Syn A)", "\n".join(lines))

    write_bench_json(
        "table3_optimal",
        {
            "budgets": [float(b) for b in budgets],
            "wall_seconds": wall,
            "objectives": [float(o) for o in objectives],
            "paper_objectives": paper,
            "paper_gap": paper_gap,
        },
    )
    assert all(
        b < a for a, b in zip(objectives, objectives[1:], strict=False)
    ), "objective must decrease monotonically in budget"
    # The B=2 optimum is pinned by the paper: thresholds [1,1,1,1].
    assert result.rows[0].thresholds.astype(int).tolist() == [1, 1, 1, 1]
