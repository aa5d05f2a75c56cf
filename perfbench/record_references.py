"""Record the output digests the benchmark checks its passes against.

Run from the repository root, at a commit whose simulated outputs are
known to be right:

    python3 perfbench/record_references.py --seeds 64

For every seeded workload and every seed below ``--seeds`` it runs one
measured-size pass and stores a digest per checked item; the figure suite,
whose inputs the seed does not reach, is recorded once under ``"*"``.  A
change that only makes the simulator faster must leave every digest as
recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=64, help="record seeds 0..N-1")
    parser.add_argument("--workload", action="append", help="only these workloads")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import passes

    out = HERE / "references.json"
    data = (
        json.loads(out.read_text()) if out.is_file()
        else {"digest_chars": passes.DIGEST_CHARS, "workloads": {}}
    )
    for name in args.workload or list(passes.WORKLOADS):
        workload = passes.WORKLOADS[name]
        seeds = range(args.seeds) if workload.seeded else [0]
        entry = {"items": None, "seeds": {}}
        for seed in seeds:
            p = workload.run_pass(seed)
            if p.failures:
                raise SystemExit(f"{name} seed {seed}: failed items {sorted(p.failures)}")
            items = list(p.digests)
            if entry["items"] is None:
                entry["items"] = items
            elif items != entry["items"]:
                raise SystemExit(f"{name} seed {seed}: item list differs from seed 0")
            key = str(seed) if workload.seeded else "*"
            entry["seeds"][key] = "".join(p.digests[i] for i in items)
            print(f"{name} seed {key}: {len(items)} items", flush=True)
        data["workloads"][name] = entry
        out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
