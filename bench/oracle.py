"""Independent routes for the seeded Kronecker queries, run outside the timed region.

    PYTHONPATH=src python3 bench/oracle.py QUERIES.json

QUERIES.json holds a list of [route, lam, mu, nu], route being "class" (the
class sum over cycle types) or "triple" (the coupled strip recursion).  The
values are printed as one JSON list.
"""

import json
import sys

from slinv.kron import kronecker

if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        queries = json.load(fh)
    print(json.dumps([kronecker(lam, mu, nu, method=route) for route, lam, mu, nu in queries]))
