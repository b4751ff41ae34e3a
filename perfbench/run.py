"""idjc benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload sweep-alpha10 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json (``setup_s``, ``pass_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics, taken
from traced passes that alternate with untraced ones.
Results, the machine record and the recorded spans go to ``perfbench/out/``.
See README.md in this directory for the workloads and what each metric is
expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
JOBS2_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
FIRST_PASS = 1  # pass 0 is the warm-up



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds, min_passes, tracers=(None,)):
    """Timed passes until their time adds up to ``seconds``; each checked after.

    Passes take their tracer from ``tracers`` in turn (None runs untraced),
    so traced and untraced passes alternate and see the same machine.
    """
    passes = []
    spent = 0.0
    while spent < seconds or len(passes) < min_passes * len(tracers):
        index = FIRST_PASS + len(passes)
        done = workload.run_pass(index, tracers[len(passes) % len(tracers)])
        spent += done.duration_s
        done.outcomes = workload.check(done, index)
        passes.append(done)
    return passes


def traced_layers(workload_name, plain, passes):
    """Per-layer metrics from the median traced pass, plus consistency checks.

    ``plain`` holds the untraced passes of the run and ``passes`` the traced ones.
    """
    import probes
    from tracer import COUNT_METRICS, SELF_TIME_METRICS, layer_metrics

    rep = sorted(passes, key=lambda p: p.duration_s)[(len(passes) - 1) // 2]
    layers = layer_metrics(rep.traces)
    problems = []
    for other in passes:
        counts = layer_metrics(other.traces)
        moved = [k for k in COUNT_METRICS if counts[k] != layers[k]]
        if moved:
            problems.append(f"counts differ between traced passes: {moved}")
            break
    self_sum = sum(layers[k] for k in SELF_TIME_METRICS)
    if not self_sum <= rep.duration_s:
        problems.append(f"layer self times {self_sum:.4f} s exceed the pass {rep.duration_s:.4f} s")
    layers["scenarios.rows_written"] = sum(o.rows for o in rep.outcomes)
    layers["scenarios.bytes_written"] = sum(o.nbytes for o in rep.outcomes)
    layers["closed_form.max_abs_err"] = max(o.gap for p in plain + passes for o in p.outcomes)
    layers["tracing.overhead_s"] = (statistics.median(p.duration_s for p in passes)
                                    - statistics.median(p.duration_s for p in plain))
    for name in ("purity-mixture", "inversion-cat", "qfunc-mixture",
                 "cat-transition", "ordinary-contrast"):
        times = [p.invocation_s[name] for p in plain if name in p.invocation_s]
        layers[f"cli.{name}_s"] = statistics.median(times) if times else 0.0
    for module, seconds in probes.import_breakdown(IMPORT_REPEATS).items():
        layers[f"import.{module}_s"] = seconds
    layers["husimi.q_grid.jobs2_speedup"] = (
        probes.jobs2_speedup(JOBS2_REPEATS) if workload_name == "qgrid-tau8" else 0.0)
    summary = {"traced_pass_s": rep.duration_s, "layer_self_sum_s": self_sum,
               "computed": [*COUNT_METRICS, "scenarios.rows_written"]}
    return layers, summary, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idjc" / "__init__.py").is_file():
        print(f"error: the idjc package is not at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One BLAS thread for this process and every child, set before numpy is
    # imported.  On a small shared box a second BLAS thread waits for a core
    # that is often busy elsewhere, which makes single calls up to ten times
    # slower at random.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))

    import probes
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup = probes.setup_times(SETUP_REPEATS)
    workload.prepare()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": probes.machine_record(),
              "samples": {"setup_s": setup}}
    problems = []
    if args.trace:
        wanted = spec["per_layer"]
        passes = measure(workload, args.seconds, MIN_TRACED_PASSES, (None, Tracer()))
        plain, traced = passes[0::2], passes[1::2]
        metrics, summary, problems = traced_layers(args.workload, plain, traced)
        record.update(summary)
        record["samples"]["pass_s"] = [p.duration_s for p in plain]
        record["samples"]["traced_pass_s"] = [p.duration_s for p in traced]
        with open(OUT / f"{args.workload}-spans.json", "w") as fh:
            json.dump({"passes": [{"duration_s": p.duration_s, "traces": p.traces}
                                  for p in traced]}, fh)
    else:
        wanted = spec["end_to_end"]
        passes = measure(workload, args.seconds, MIN_PASSES)
        durations = [p.duration_s for p in passes]
        metrics = {"setup_s": statistics.median(setup),
                   "pass_s": statistics.median(durations),
                   "peak_rss_mb": workload.peak_rss_mb()}
        record["samples"]["pass_s"] = durations

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    problems += [o.reason for o in failed[:20]]
    result = {
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(result=result, failed_share=len(failed) / len(outcomes), problems=problems)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(setup)} set-ups, {len(passes)} passes, "
          f"{len(outcomes)} operations, {len(failed)} failed "
          f"({100.0 * len(failed) / len(outcomes):.2f}%)")
    for problem in problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
