"""Benchmark of brgcn: node-classification training, link-prediction training
and link-prediction ranking, each checked against references made apart from
the package.

    python3 bench/run.py --workload nc-onehot --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, each in a fresh process

One run sets the workload up several times, then repeats whole measured
rounds until ``--seconds`` have passed, then checks the outputs.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced, and the JSON holds the per-layer metrics, the untraced remainder of
wall time and the tracing overhead.  Earlier lines give the machine
fingerprint and the checked outputs.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread: numpy's OpenBLAS would otherwise start one per core
# and the timings would depend on what else runs.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # write nothing into the checkout but the work dirs

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

WORKLOADS = ("nc-onehot", "lp-train", "lp-rank")
SETUP_REPEATS = (7, 25)  # set-ups per run: at least 7, more until SETUP_SECONDS, at most 25
SETUP_SECONDS = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "infer_s": "s",
    "rank_candidates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "hetgraph.build_s": "s",
    "layer.forward_incl_s": "s",
    "layer.forward_self_s": "s",
    "layer.forward_calls": "count",
    "diffnum.segment_s": "s",
    "diffnum.take_s": "s",
    "diffnum.take_calls": "count",
    "diffnum.other_ops_s": "s",
    "diffnum.backward_s": "s",
    "diffnum.tape_records": "count",
    "training.loss_s": "s",
    "training.adam_s": "s",
    "training.predict_s": "s",
    "training.negative_sample_s": "s",
    "training.negatives": "count",
    "decoders.score_triples_s": "s",
    "decoders.score_s": "s",
    "decoders.score_calls": "count",
    "evalkit.rank_self_s": "s",
    "untraced_s": "s",
    "trace_overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="brgcn benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def layer_figures(summary) -> dict:
    """Raw per-layer figures of one traced phase, in wall seconds and counts."""
    from tracer import DIFFNUM_OPS

    other_ops = [f"diffnum.{op}" for op in DIFFNUM_OPS
                 if op not in ("take", "segment_sum", "segment_softmax")]
    s = summary
    return {
        "hetgraph.build_s": s.module_busy.get("hetgraph", 0.0),
        "layer.forward_incl_s": s.module_busy.get("layer", 0.0),
        "layer.forward_self_s": s.self_of("layer.stack_forward", "layer.layer_forward"),
        "layer.forward_calls": s.calls_of("layer.layer_forward"),
        "diffnum.segment_s": s.incl_of("diffnum.segment_softmax", "diffnum.segment_sum"),
        "diffnum.take_s": s.incl_of("diffnum.take"),
        "diffnum.take_calls": s.calls_of("diffnum.take"),
        "diffnum.other_ops_s": s.self_of(*other_ops),
        "diffnum.backward_s": s.incl_of("diffnum.backward"),
        "training.loss_s": s.incl_of("training.nc_loss", "training.lp_loss"),
        "training.adam_s": s.incl_of("training.adam_step"),
        "training.predict_s": s.incl_of("training.predict"),
        "training.negative_sample_s": s.incl_of("training.negative_sample"),
        "training.negatives": sum(s.measured.get("training.negative_sample", [])),
        "decoders.score_triples_s": s.incl_of("decoders.score_triples"),
        "decoders.score_s": s.incl_of("decoders.score"),
        "decoders.score_calls": s.calls_of("decoders.score"),
        "evalkit.rank_self_s": s.self_of("evalkit.rank_triples"),
    }


class Phase:
    """A traced stretch of a run: its tracer, meter and wall time."""

    def __init__(self, brgcn):
        from meter import Meter
        from tracer import Tracer

        self.tracer = Tracer(brgcn)
        self.meter = Meter()
        self.wall = 0.0

    def run(self, fn, *args):
        start = time.perf_counter()
        with self.tracer.active():
            out = fn(*args)
        self.wall += time.perf_counter() - start
        return out

    def figures(self, per: int) -> dict:
        """Per-layer figures in reference seconds, divided by ``per``."""
        summary = self.tracer.summary()
        scale = self.meter.ref_s / self.meter.raw_s
        out = {k: v * scale / per if LAYER_UNITS[k] == "s" else v / per
               for k, v in layer_figures(summary).items()}
        tape = summary.measured.get("diffnum.backward")  # tape length at each backward call
        out["diffnum.tape_records"] = statistics.median(tape) if tape else 0
        outside = self.meter.calibration_s - self.meter.nested_calibration_s
        out["untraced_s"] = (self.wall - outside - summary.root_s) * scale / per
        return out


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import brgcn

    if Path(brgcn.__file__).resolve().parent != (SRC / "brgcn").resolve():
        print(f"error: imported brgcn from {brgcn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import refs
    from meter import Meter
    from workloads import WORKLOADS as REGISTRY

    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True), flush=True)
    refs.selfcheck()
    wl = REGISTRY[args.workload]
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    clock = time.perf_counter
    meter = Meter()
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS[0] or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_REPEATS[1]
        ):
            state, dt = meter.time(wl.setup, args.seed, workdir)
            setup_s.append(dt)
        if args.trace:
            setup_phase, round_phase = Phase(brgcn), Phase(brgcn)
            state, _ = setup_phase.run(setup_phase.meter.time, wl.setup, args.seed, workdir)

        # In a traced run, odd rounds are traced.  ``work`` is the reference
        # time of each round's timed calls, for the tracing overhead.
        rounds, work, traced_work = [], [], []
        begin = clock()
        while True:
            if args.trace and len(rounds) % 2 == 1:
                before = round_phase.meter.ref_s
                rnd = round_phase.run(wl.measure, state, round_phase.meter)
                traced_work.append(round_phase.meter.ref_s - before)
            else:
                before = meter.ref_s
                rnd = wl.measure(state, meter)
                work.append(meter.ref_s - before)
            wl.probe(rnd)
            rounds.append(rnd)
            # Start another round if it should end within half a round of
            # --seconds: the run then measures --seconds on average.
            elapsed = clock() - begin
            if elapsed * (len(rounds) + 0.5) / len(rounds) > args.seconds and (not args.trace or traced_work):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            notes = wl.check(state, rounds)
            correct = True
        except refs.CheckFailed as err:
            notes = [f"CHECK FAILED: {err}"]
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for note in notes:
        print(f"{wl.name}: {note}")
    plain = rounds[::2] if args.trace else rounds
    e2e = {
        "setup_s": statistics.median(setup_s),
        "epoch_s": statistics.median(x for r in plain for x in r.epoch_s),
        "infer_s": statistics.median(x for r in plain for x in r.infer_s),
        "rank_candidates_per_s": statistics.median(r.eval_candidates / x for r in plain for x in r.eval_s),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{wl.name}: {len(rounds)} rounds ({len(plain)} untraced), "
          f"{meter.ref_s / meter.raw_s:.3f} reference s per wall s: "
          + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
    if args.trace:
        setup_fig = setup_phase.figures(1)
        round_fig = round_phase.figures(len(traced_work))
        values = {k: setup_fig[k] + round_fig[k] for k in setup_fig}
        values["trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_work) / statistics.median(work) - 1.0
        )
        units = LAYER_UNITS
        for name, phase in (("setup", setup_phase), ("rounds", round_phase)):
            phase.tracer.write(TRACE_OUT / f"spans-{wl.name}-{name}.npz")
        print(f"{wl.name}: spans written to {TRACE_OUT.relative_to(ROOT)}/spans-{wl.name}-*.npz")
    else:
        values, units = e2e, E2E_UNITS
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so each peak RSS is that workload's own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brgcn" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'brgcn'} not found; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
