"""Host-time benchmark of the Prosper simulator.

Run from the repository root:

    python3 perfbench/run.py --workload apps_stack --seed 1 --seconds 8 --trace 0

One process runs one workload serially.  It sets up (imports plus a small
warm-up pass), then runs identical untraced passes until the next one
would end after ``--seconds``, and reports the fastest time of each piece
of work, scaled to a reference host speed.  ``--trace 1`` adds one traced
pass that supplies the per-layer split.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric by name and unit.  See METHOD.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import passes as passes_mod  # noqa: E402
from probes import Counters, Patches, Tracer, patched  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
SETUP_SAMPLES = 5


# Host speed.  Other tenants slow this host for minutes at a time, by up
# to 2x, fastest times included.  After every unit of a measured pass
# the run times a fixed pure-Python task, twice over the same keys, and
# keeps the second, cache-warm time: it measures the host's speed and not
# what the simulator left in the caches.  Probe *i* runs right after
# segment *i* in every pass, so its fastest time over the passes comes
# from the same moments as the segment's.  The mean of those fastest
# times against REFERENCE_S is how much slower than a quiet host those
# moments were; reported times are divided by it.  The probe never calls
# the simulator, so a change to the simulator shows in full.
PROBE_KEYS = 1 << 10
PROBE_STEPS = 2_000
REFERENCE_S = 0.00053


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def probe_task():
    """A fixed task: dict lookups, attribute updates, list stores and
    calls over a small working set."""
    mask = PROBE_KEYS - 1
    table = {i: (i * 40503) & mask for i in range(PROBE_KEYS)}
    counts = [0] * PROBE_KEYS
    slots = [_Slot() for _ in range(64)]

    def bump(slot, k):
        slot.value += k
        return slot.value & mask

    def task():
        acc = 0
        for i in range(PROBE_STEPS):
            j = bump(slots[i & 63], table[(i * 2654435761) & mask])
            counts[j] += 1
            acc ^= counts[j]
        return acc

    return task


class HostSpeed:
    """The probe the measured passes run after every unit."""

    def __init__(self) -> None:
        self.task = probe_task()

    def probe(self) -> float:
        """Seconds the probe task takes now, with its working set cached."""
        self.task()
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0

    def slowdown(self, passes) -> float:
        """Host slowdown at the moments the passes' segments were fastest."""
        best = [min(times) for times in zip(*(p.probe_s for p in passes))]
        return sum(best) / len(best) / REFERENCE_S


def best_of(passes, slowdown: float = 1.0) -> tuple[float, list[float]]:
    """Pass time and unit latencies (ms) with the host's interference
    filtered out.

    The time of one piece of work swings by up to 2x within a second as
    other tenants come and go.  Every pass of one seed does the same work
    in the same order, so each unit, and each segment of a pass between
    unit ends, is timed once per pass; the fastest of those times is the
    work's cost at the run's quietest moments.  Returns the sum of the
    segments' fastest times and each unit's fastest time, both divided by
    the host's *slowdown* at those moments."""
    wall = sum(min(times) for times in zip(*(p.segments() for p in passes)))
    units = [min(times) / slowdown for times in zip(*(p.unit_ms for p in passes))]
    return wall / slowdown, units


def import_simulator(root: Path) -> None:
    """Put ``<root>/src`` first on the path and import the simulator from
    there, never from an installed copy."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}")


def setup_sample(args) -> float:
    """Setup time of a fresh process: start-up, imports, warm-up pass."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def load_reference(workload, seed: int) -> dict | None:
    """Digest per item recorded for this workload and seed, if any."""
    if not REFERENCES.is_file():
        return None
    data = json.loads(REFERENCES.read_text())
    entry = data["workloads"].get(workload.name)
    if entry is None:
        return None
    packed = entry["seeds"].get(str(seed) if workload.seeded else "*")
    if packed is None:
        return None
    width = data["digest_chars"]
    return {
        item: packed[i * width:(i + 1) * width] for i, item in enumerate(entry["items"])
    }


def failed_items(p, reference) -> set:
    """Items of pass *p* that failed: raised, broke an invariant, or
    differ from the reference (missing and extra items included)."""
    bad = set(p.failures)
    if reference is not None:
        for item in set(reference) | set(p.digests):
            if p.digests.get(item) != reference.get(item):
                bad.add(item)
    return bad


def consistency_problems(passes) -> list[str]:
    """Isolation and determinism: every pass must produce the same items,
    digests, unit count, simulator counts and baseline-cache misses."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        if p.digests != first.digests:
            problems.append(f"pass {i}: output digests differ from pass 1")
        if len(p.unit_ms) != len(first.unit_ms):
            problems.append(f"pass {i}: {len(p.unit_ms)} units, pass 1 had {len(first.unit_ms)}")
        if p.counts != first.counts:
            problems.append(f"pass {i}: simulator counts differ from pass 1")
        if p.info.get("cache_misses") != first.info.get("cache_misses"):
            problems.append(f"pass {i}: baseline-cache misses differ from pass 1")
    return problems


def end_to_end(passes, setup, slowdown: float) -> tuple[dict, str]:
    wall, units = best_of(passes, slowdown)
    tail, pct, n = passes_mod.unit_tail(units)
    return {
        "wall_s": (wall, "s"),
        "sim_ops_per_s": (passes[0].counts.get("ops", 0) / wall, "1/s"),
        "unit_p50_ms": (median(units), "ms"),
        "unit_tail_ms": (tail, "ms"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, f"unit_tail_ms is p{pct:.1f} of {n} units, each its fastest of {len(passes)} passes"


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(traced, tracer, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, and the problems found."""
    from repro.harness.figures import figure_names

    c = traced.counts
    s = tracer.self_s
    ops = c.get("ops", 0)
    layer_self = {
        "memory.miss_path_s": s("memory.miss_path"),
        "cpu.engine_self_s": s("cpu.engine"),
        "persistence.ssp.hook_s": s("persistence.ssp.hook"),
        "persistence.prosper.hook_s": s("persistence.prosper.hook"),
        "persistence.other.hook_s": s("persistence.other.hook"),
        "persistence.interval_s": s("persistence.interval"),
        "core.staging_s": s("core.staging"),
    }
    figure_s = traced.info.get("figure_s", {})
    schedules = traced.unit_ms if "violations" in traced.info else []
    metrics = {name: (value, "s") for name, value in layer_self.items()}
    metrics.update({
        "memory.miss_path_calls": (tracer.outer_calls("memory.miss_path"), "count"),
        "memory.l1_hit_ratio": (ratio(c.get("l1_hits", 0), c.get("l1_hits", 0) + c.get("l1_misses", 0)), "ratio"),
        "memory.l2_hit_ratio": (ratio(c.get("l2_hits", 0), c.get("l2_hits", 0) + c.get("l2_misses", 0)), "ratio"),
        "memory.l3_hit_ratio": (ratio(c.get("l3_hits", 0), c.get("l3_hits", 0) + c.get("l3_misses", 0)), "ratio"),
        "memory.nvm_writes": (c.get("nvm_writes", 0), "count"),
        "memory.nvm_stall_cycles": (c.get("nvm_stall_cycles", 0), "cycles"),
        "cpu.ns_per_op": (ratio(tracer.inclusive_s("cpu.engine") * 1e9, ops), "ns"),
        "persistence.ssp.consolidations": (c.get("ssp_consolidations", 0), "count"),
        "persistence.ssp.lines_per_consolidation": (ratio(c.get("ssp_lines", 0), c.get("ssp_consolidations", 0)), "lines"),
        "persistence.batched_store_share": (ratio(tracer.batched_stores, tracer.batched_stores + tracer.per_op_stores), "ratio"),
        "persistence.checkpoint_bytes": (c.get("checkpoint_bytes", 0), "bytes"),
        "core.table_hit_ratio": (ratio(c.get("table_hits", 0), c.get("table_hits", 0) + c.get("table_misses", 0)), "ratio"),
        "core.bitmap_ops": (c.get("bitmap_ops", 0), "count"),
        "workloads.build_s": (tracer.inclusive_s("workloads.build"), "s"),
        "workloads.build_ns_per_op": (ratio(tracer.inclusive_s("workloads.build") * 1e9, tracer.built_ops), "ns"),
        "experiments.baseline_s": (tracer.inclusive_s("experiments.baseline"), "s"),
        "experiments.report_s": (tracer.inclusive_s("experiments.report"), "s"),
        "harness.overhead_s": (traced.info.get("harness_overhead_s", 0.0), "s"),
        "harness.baseline_cache_hit_ratio": (ratio(traced.info.get("cache_hits", 0), traced.info.get("cache_hits", 0) + traced.info.get("cache_misses", 0)), "ratio"),
        "faults.schedule_ms": (median(schedules) if schedules else 0.0, "ms"),
        "faults.probe_s": (tracer.inclusive_s("faults.probe"), "s"),
        "faults.violations": (traced.info.get("violations", 0), "count"),
        "trace.pass_s": (traced.wall_s, "s"),
        "trace.overhead_pct": (100.0 * (traced.wall_s / untraced_wall - 1.0), "%"),
    })
    for name in figure_names():
        metrics[f"harness.figure_s.{name}"] = (figure_s.get(name, 0.0), "s")
    total_self = sum(t[3] for t in tracer.totals.values())
    metrics["trace.unattributed_s"] = (s("pass") + s("unit") - traced.own_s, "s")

    problems = []
    pass_s = tracer.inclusive_s("pass")  # wall_s plus the digesting time
    slack = 1e-3 + 0.01 * pass_s
    for name, value in layer_self.items():
        if not -slack <= value <= traced.wall_s + slack:
            problems.append(f"{name} = {value:.3f} s is outside the traced pass ({traced.wall_s:.3f} s)")
    if total_self > pass_s + slack:
        problems.append(f"self times sum to {total_self:.3f} s > traced pass {pass_s:.3f} s")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path.cwd()
    import_simulator(root)
    workload = passes_mod.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(passes_mod.WORKLOADS)}")
    counters = Counters()
    counters.install(Patches())  # for the life of the process

    workload.run_pass(args.seed, warmup=True)
    counters.take()
    setup = [time.perf_counter() - T0]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    if not args.trace:  # setup_s is an end-to-end metric only
        setup += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    runs = []
    host = HostSpeed()
    begin = time.perf_counter()
    while True:
        p = workload.run_pass(args.seed, probe=host.probe)
        p.counts = counters.take()
        runs.append(p)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(runs) > args.seconds:  # the next pass would end late
            break
    slowdown = host.slowdown(runs)

    checked = list(runs)
    traced = tracer = None
    if args.trace:
        tracer = Tracer()
        with patched(tracer.install):
            traced = workload.run_pass(args.seed, tracer=tracer)
        traced.counts = counters.take()
        checked.append(traced)

    reference = load_reference(workload, args.seed)
    failed = sum(len(failed_items(p, reference)) for p in checked)
    attempted = sum(len(set(p.digests) | set(reference or ())) for p in checked)
    problems = consistency_problems(checked)
    if any(p.info.get("violations") for p in checked):
        problems.append("fuzz campaign reported violations")

    e2e, tail_note = end_to_end(runs, setup, slowdown)
    if args.trace:
        metrics, layer_problems = per_layer(traced, tracer, median(p.wall_s for p in runs))
        problems += layer_problems
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{workload.name}-seed{args.seed}.json").write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "columns": ["id", "parent", "name", "start_s", "end_s", "self_s"],
            "spans": tracer.records(),
            "totals": {k: dict(zip(("calls", "outer_calls", "inclusive_s", "self_s"), v))
                       for k, v in sorted(tracer.totals.items())},
        }))
        metrics["bench.passes"] = (len(runs), "count")
        metrics["bench.pass_median_s"] = (median(p.wall_s for p in runs), "s")
        metrics["bench.host_slowdown"] = (slowdown, "ratio")
    else:
        metrics = e2e

    print(f"workload {workload.name}: {workload.why}")
    if not workload.seeded:
        print(f"seed {args.seed} does not reach this workload's inputs "
              "(the figure definitions fix their own seeds)")
    print(f"{len(runs)} untraced passes; {tail_note}")
    print("pass seconds: " + " ".join(f"{p.wall_s:.3f}" for p in runs)
          + "; setup seconds: " + " ".join(f"{s:.3f}" for s in setup)
          + f"; host slowdown {slowdown:.3f}")
    print("reference digests: " + ("checked" if reference is not None else
          f"none recorded for seed {args.seed}; checked passes against each other"))
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for p_index, p in enumerate(checked, start=1):
        for item in sorted(failed_items(p, reference)):
            print(f"FAILED pass {p_index} {item}: {p.failures.get(item, 'digest mismatch')}")
    if args.trace:  # the end-to-end metrics too, outside the result line
        for name, (value, unit) in e2e.items():
            print(f"  {name} = {value:.6g} {unit} (end-to-end)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
