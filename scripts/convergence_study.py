#!/usr/bin/env python3
"""Grid-refinement study of the round-sphere Euler characteristics.

Writes one CSV per sphere dimension showing the quadrature error of
(2 pi)^-k times the Pfaffian integral against the refinement level.
"""

import math
import sys
import time

from gblab import catalog, verify
from gblab.quadrature import ConvergenceTable, mesh_for_chart


def study(n: int, levels: int, out: str) -> None:
    spec = catalog.get("sphere", n=n)
    k = n // 2
    table = ConvergenceTable()
    for level in range(1, levels + 1):
        t0 = time.monotonic()
        total = verify.pf_integral(spec, level, order=4 if n == 2 else 2)
        chi = total / (2.0 * math.pi) ** k
        nodes = sum(mesh_for_chart(chart, level).total_nodes for chart, _ in spec.charts)
        table.add(level, nodes, chi)
        print(f"S^{n} level {level}: chi = {chi:.12f}  "
              f"err = {abs(chi - 2.0):.3e}  ({time.monotonic() - t0:.1f}s)")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    print(f"wrote {out}")


if __name__ == "__main__":
    levels = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    study(2, levels, "sphere2_convergence.csv")
    study(4, min(levels, 2), "sphere4_convergence.csv")
