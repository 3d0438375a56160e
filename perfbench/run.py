"""Outside-in benchmark of the strqkd command line.

Run from the repository root:

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 28 --trace 0

Each pass calls ``strqkd.cli.main`` in this process with the workload's argv
and checks its output.  ``--trace 0`` reports the end-to-end metrics from
untraced passes, each preceded by a fixed reference kernel; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  A results file (and, when
traced, the spans of the last traced pass) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer
from workloads import WORKLOADS, rate_points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 7
# A fresh interpreter imports strqkd and builds the CLI parser; --version
# exits as soon as the parser has been built and has parsed it.
SETUP_CODE = "import strqkd.cli\ntry:\n    strqkd.cli.main(['--version'])\nexcept SystemExit:\n    pass\n"
QUBIT_KERNELS = ("holevo_oracle", "holevo_bound", "basis_error_rate", "twirl",
                 "conditional_end_user_state")
RELAY_STAGES = {"quantum_phase": "run_quantum_phase", "pair": "pair_and_announce",
                "estimate": "correct_and_estimate"}


class Passes:
    """Runs one workload pass at a time and checks what it produced."""

    def __init__(self, workload, seed: int, out: Path, cli):
        self.workload, self.cli = workload, cli
        out.mkdir(parents=True, exist_ok=True)
        self.argvs = workload.commands(seed, out)
        self.outputs = [Path(a[a.index("--output") + 1]) for a in self.argvs if "--output" in a]
        self.first_outputs: list[bytes] | None = None
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self) -> float:
        """One pass; returns the seconds spent inside ``cli.main``."""
        self.attempted += 1
        wall, stdouts, problems = 0.0, [], []
        try:
            for argv in self.argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    start = time.perf_counter()
                    try:
                        code = self.cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    wall += time.perf_counter() - start
                stdouts.append(buf.getvalue())
                if code != 0:
                    problems.append(f"{argv[0]} exited with {code}: {buf.getvalue()[-200:]!r}")
            if not problems:
                problems = self.workload.check(self.argvs, stdouts)
                outputs = [p.read_bytes() for p in self.outputs]
                if self.first_outputs is None:
                    self.first_outputs = outputs
                elif outputs != self.first_outputs:
                    problems.append("CSV output differs from the first pass at the same seed")
        except Exception as exc:  # a crashing pass is a failed operation
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
            self.failures.extend(problems[:5])
        return wall


def reference_kernel() -> float:
    """Time fixed benchmark-owned work: a scalar Python loop and a numpy
    Philox fill.  The shared machine's speed changes by up to 1.8x for tens
    of seconds at a time, and it changes the time of this kernel by about
    the same factor as a pass; dividing each pass by the kernel timed just
    before it cancels that (see README)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 150_000):
        x = i * 1e-6
        acc += math.exp(-x) * (1.0 - x) ** 2 / (1.0 + x)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    for _ in range(8):
        draws = rng.random((5, 65536))
        np.nonzero((draws[0] < 0.5) & (draws[1] < 0.5))
    return time.perf_counter() - start


def run_for(seconds: float, step) -> list:
    """Call ``step`` until another call would overrun ``seconds``, at least
    once; returns the results of the calls."""
    results, start = [], time.perf_counter()
    while True:
        results.append(step())
        spent = time.perf_counter() - start
        if spent + spent / len(results) > seconds:
            return results


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "note": "shared virtual machine: no hardware counters and no per-process "
                "CPU or memory isolation, so other tenants' load shows as noise",
    }


def end_to_end(workload, passes: Passes, seconds: int) -> tuple[dict, dict]:
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    passes.run()  # warm-up: first-call caches and page faults
    timed = run_for(seconds, lambda: (reference_kernel(), passes.run()))
    refs, walls = [r for r, _ in timed], [w for _, w in timed]
    wall = statistics.median(walls)
    per_pass = f"median of {len(walls)} passes"
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "wall_per_ref": (statistics.median(w / r for r, w in timed),
                         f"{per_pass}, each over the reference kernel timed before it"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "peak of this process, which ran only this workload"),
    }
    derived = {"wall_s": (wall, "s", per_pass),
               "reference_s": (statistics.median(refs), "s", f"median of {len(refs)} runs")}
    if workload.link_rounds:
        derived["link_rounds_per_s"] = (workload.link_rounds / wall, "1/s", per_pass)
    if workload.name == "rate-curves":
        derived["points_per_s"] = (rate_points(passes.argvs) / wall, "1/s", per_pass)
    derived["ops_failed_ratio"] = (passes.failed / passes.attempted, "ratio",
                                   f"{passes.failed}/{passes.attempted} passes failed")
    return values, {"derived": derived,
                    "samples": {"setup_s": setup, "wall_s": walls, "reference_s": refs}}


def pass_layer_metrics(summary: dict, wall: float) -> tuple[dict, dict]:
    """Timing metrics of one traced pass: (JSON metrics, times named as in
    the rationale, in seconds per pass or ms per call)."""
    funcs, layer_self = summary["functions"], summary["layer_self_s"]
    metrics = {f"{layer}.share": layer_self[layer] / wall for layer in LAYERS}
    metrics["cli.self_s"] = layer_self["cli"]
    times = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for stage, fn in RELAY_STAGES.items():
        metrics[f"relay.{stage}.share"] = funcs[f"relay.{fn}"]["self_s"] / wall
        times[f"relay.{stage}_s"] = funcs[f"relay.{fn}"]["self_s"]
    drawn = sum(summary["link_counts"].get("drawn", []))
    phase = funcs["relay.run_quantum_phase"]["inclusive_s"]
    metrics["relay.quantum_phase.link_rounds_per_s"] = drawn / phase if phase else 0.0
    for name in [f"qubit.{k}" for k in QUBIT_KERNELS] + ["decoy.optimize_intensity"]:
        calls, incl = funcs[name]["calls"], funcs[name]["inclusive_s"]
        metrics[f"{name}.calls_per_s"] = calls / incl if incl else 0.0
        times[f"{name}_ms"] = 1e3 * incl / calls if calls else None
    metrics["keyrate.fig2_curves.share"] = funcs["keyrate.fig2_curves"]["inclusive_s"] / wall
    times["keyrate.fig2_curves_s"] = funcs["keyrate.fig2_curves"]["inclusive_s"]
    return metrics, times


def exact_counts(summary: dict) -> dict:
    """Counts, and ratios of counts, that repeat exactly at a fixed seed."""
    funcs, links = summary["functions"], summary["link_counts"]
    drawn, sifted = sum(links.get("drawn", [])), links.get("sifted", [])
    optimize = funcs["decoy.optimize_intensity"]["calls"]
    counts = {
        "relay.drawn_link_rounds": drawn,
        "relay.sifted_link_rounds": sum(sifted),
        "relay.paired_rounds": summary["counts"].get("paired", 0),
        "relay.sifted_fraction": sum(sifted) / drawn if drawn else 0.0,
        "relay.truncated_fraction": (
            1.0 - summary["counts"].get("links_paired", 0) / sum(sifted) if sum(sifted) else 0.0
        ),
        "decoy.optimize_intensity.calls": optimize,
        "decoy.rate_evals_per_optimize": summary["rate_evals_in_optimize"] / optimize if optimize else 0.0,
        "decoy.link_statistics_calls": funcs["decoy.link_statistics"]["calls"],
        "keyrate.str_rate_qubit.calls": funcs["keyrate.str_rate_qubit"]["calls"],
    }
    for i in range(3):
        counts[f"relay.link{i}.sifted"] = sifted[i] if i < len(sifted) else 0
    return counts | {f"qubit.{k}.calls": funcs[f"qubit.{k}"]["calls"] for k in QUBIT_KERNELS}


def per_layer(passes: Passes, seconds: int, modules, stem: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, the overhead is the difference of the medians."""
    passes.run()  # warm-up
    pairs: list[tuple[float, float, dict]] = []
    last: list[Tracer] = []

    def pair() -> None:
        untraced = passes.run()
        tracer = Tracer(modules)
        with tracer:
            traced = passes.run()
        last[:] = [tracer]  # only the last traced pass keeps its spans
        pairs.append((untraced, traced, tracer.summary()))

    run_for(seconds, pair)
    untraced = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    per_pass = [pass_layer_metrics(s, w) for _, w, s in pairs]
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    times = {k: None if v is None else statistics.median(t[k] for _, t in per_pass)
             for k, v in per_pass[0][1].items()}
    metrics["trace.overhead_s"] = traced - untraced
    counts = exact_counts(pairs[0][2])
    if any(exact_counts(s) != counts for _, _, s in pairs[1:]):
        passes.failed += 1
        passes.failures.append("exact counts differ between traced passes at one seed")
    # Peak traced allocation of one more untraced pass, per drawn link-round.
    metrics["relay.bytes_per_link_round"] = 0.0
    if counts["relay.drawn_link_rounds"]:
        tracemalloc.start()
        passes.run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        metrics["relay.bytes_per_link_round"] = peak / counts["relay.drawn_link_rounds"]
    last[0].save(OUT / f"{stem}_spans.npz")
    info = {
        "traced_pairs": len(pairs),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans_per_traced_pass": pairs[-1][2]["spans"],
        "times": times,
        "exact": sorted(counts),
        "per_link": pairs[-1][2]["link_counts"] | {"paired": counts["relay.paired_rounds"]},
        "functions_last_traced_pass": pairs[-1][2]["functions"],
    }
    return metrics | counts, info


def report(kind: str, metrics: dict, passes: Passes, lines: list[str]) -> dict:
    """Print every metric of ``kind`` in BENCHMARK.json by name with its
    unit, then the result line; returns the metrics with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if {m["name"] for m in spec} != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {kind}")
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in spec}
    for line in lines:
        print(line)
    for name, m in out.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']} ({metrics[name][1]})")
    for failure in list(dict.fromkeys(passes.failures))[:20]:
        print(f"FAILED: {failure}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "strqkd" / "__init__.py").is_file():
        print(f"error: no strqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import strqkd
    from strqkd import cli, decoy, keyrate, qubit, relay

    if Path(strqkd.__file__).resolve().parent != SRC / "strqkd":
        print(f"error: imported strqkd from {strqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    passes = Passes(workload, args.seed, OUT / stem, cli)
    if args.trace:
        values, info = per_layer(passes, args.seconds, [cli, relay, qubit, keyrate, decoy], stem)
        n = info["traced_pairs"]
        lines = [
            f"{name} = {'n/a (not called)' if v is None else f'{v:.6g}'} "
            f"{'ms per call' if name.endswith('_ms') else 's per pass'} "
            f"(median of {n} traced passes)"
            for name, v in info["times"].items()
        ] + [f"relay.per_link.{k} = {v} count (exact at this seed)" for k, v in info["per_link"].items()]
        notes = dict.fromkeys(info["exact"], "exact at this seed")
        notes["relay.bytes_per_link_round"] = "one pass under tracemalloc"
        metrics = report("per_layer", {
            k: (v, notes.get(k, f"median of {n} traced passes")) for k, v in values.items()
        }, passes, lines)
    else:
        values, info = end_to_end(workload, passes, args.seconds)
        lines = [f"{k} = {v:.6g} {u} ({note})" for k, (v, u, note) in info["derived"].items()]
        metrics = report("end_to_end", values, passes, lines)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "workloads": {
            name: {"argv": w.commands(args.seed, Path("perfbench/out/<run>")), "sizes": w.sizes}
            for name, w in WORKLOADS.items()
        },
        "attempted": passes.attempted,
        "failed": passes.failed,
        "failures": passes.failures,
        "metrics": metrics,
        "detail": info,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
