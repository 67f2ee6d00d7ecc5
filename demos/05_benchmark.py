"""Scaling of the two evaluation routes, read off `sosre bench`: the
O(N^2 2^N) contraction against the O(N^3) determinant."""

import contextlib
import io

from sosre import cli

# one seeded instance per N = 1..24; brute force runs up to its default cap
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["bench", "--max-n", "24", "--seed", "5"])
if code:
    raise SystemExit(code)
csv = out.getvalue()
print(csv)

rows = [line.split(",") for line in csv.splitlines()[1:]]
both = [r for r in rows if r[2] != "-"]
n, t_det, t_brute, _ = both[-1]
print(f"both routes run up to N = {n}, where contraction takes {t_brute} ms "
      f"against {t_det} ms for the determinant;")
print(f"over N = 1..{n} the two agree to {max(float(r[3]) for r in both):.1e} relative or better.")
print(f"beyond the cap only the determinant runs: {rows[-1][1]} ms at N = {rows[-1][0]}.")
