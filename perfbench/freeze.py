"""Write perfbench/refs.json: the reference outputs every workload is checked against.

Run from the repository root, on the commit that defines the benchmark:

    python3 perfbench/freeze.py            # both sizes, every workload; a few minutes

The references are the outputs of that commit, with the seed
workloads.REFERENCE_SEED, for every input a pass can draw.  Re-freezing on
a later commit would hide any change in results, so do it only when a
workload's inputs change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import rotcon
    import rotcon.cli  # noqa: F401

    import workloads

    refs = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd(), prefix=".perfbench-") as tmp:
        for size in ("tiny", "full"):
            refs[size] = {}
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(rotcon, size, None, workloads.REFERENCE_SEED, Path(tmp))
                frozen = refs[size][name] = {}
                for op in wl.pool():
                    frozen[op.key] = op.frozen(op.collect(op.call()))
                    print(size, name, op.key, frozen[op.key], file=sys.stderr, flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
