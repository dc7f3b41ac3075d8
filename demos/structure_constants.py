"""Reconstruct two-point invariants and the theta multiplication table
from the plane mirror's period sequence, then confirm associativity.

Also shows the command line route on the same data via a generated
period file.

Run from the repository root:

    python3 demos/structure_constants.py
"""

import json
import tempfile
from math import factorial
from pathlib import Path

from fanoperiods.cli import run
from fanoperiods.frobenius import (
    PeriodSequence,
    associativity_check,
    extend_series,
    reconstruct_N1,
    structure_table,
)


def plane_periods(order: int) -> list[str]:
    return [
        str(factorial(d) // factorial(d // 3) ** 3) if d % 3 == 0 else "0"
        for d in range(order + 1)
    ]


def main() -> None:
    periods = PeriodSequence.from_plain(plane_periods(12), 3)
    series = [reconstruct_N1(periods)]
    while len(series) < 4:
        series.append(extend_series(series))

    print("two-point invariants N_{1,i} = a_i / i from the leading series")
    n1 = series[0]
    for i in range(1, 9):
        value = n1.tail_term(i) / i
        if not value.is_zero():
            print(f"  N_1,{i} = {value}")

    table = structure_table(series, 4)
    print("selected multiplication table entries")
    for key in ((1, 1, 0), (1, 2, 0), (2, 2, 1), (1, 3, 1), (2, 2, 0)):
        print(f"  entry{key} = {table.entry(*key)}")

    violations = associativity_check(table)
    print(f"associativity violations through total degree 4: {len(violations)}")

    print("same table through the command line")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "plane-periods.json"
        path.write_text(json.dumps({"index": 3, "coeffs": plane_periods(12)}))
        out = Path(scratch) / "table.json"
        code = run(
            ["frobenius", "--periods", str(path), "--max-p", "4", "--out", str(out)]
        )
        records = json.loads(out.read_text())
        nonzero = [r for r in records if r["value"] != "0"]
        print(f"  exit code {code}, {len(records)} records, {len(nonzero)} nonzero")


if __name__ == "__main__":
    main()
