"""Recompute every catalog mirror's period head and compare it with the
frozen regression data.

Run from the repository root:

    python3 demos/catalog_periods.py
"""

from fanoperiods.cli import catalog
from fanoperiods.laurent import classical_periods


def main() -> None:
    for entry in catalog("list"):
        computed = classical_periods(entry.mirror, 10)
        head = [str(c.specialize_q(1)) for c in computed[:7]]
        status = "ok" if tuple(head) == entry.period_head else "MISMATCH"
        print(f"{entry.name:7s} ({entry.description}, index {entry.fano_index}): {status}")
        print(f"  c_0..c_10 = {[str(c) for c in computed]}")


if __name__ == "__main__":
    main()
