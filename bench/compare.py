"""List every task digest that differs between two BENCH files.

    python3 bench/compare.py BENCH_before.json BENCH_after.json

A digest is a hash of a task's exact result (see digest.py), so an unchanged
digest means an unchanged result.  Exits 1 if any digest differs or a task is
missing on one side.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def differing_digests(a: dict, b: dict) -> list:
    """[(task, digest in a, digest in b)] for every task whose digests differ."""
    da, db = a["digests"], b["digests"]
    return [(name, da.get(name), db.get(name))
            for name in sorted(da.keys() | db.keys()) if da.get(name) != db.get(name)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    diffs = differing_digests(a, b)
    for name, da, db in diffs:
        print(f"DIGEST {name}: {da} != {db}")
    print(f"{len(diffs)} of {len(a['digests'].keys() | b['digests'].keys())} digests differ")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
