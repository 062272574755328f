"""symhess benchmark: one workload per run, or every workload, or a comparison.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seeds 1,2,3] [--seconds S] [--out FILE]
    python3 perfbench/run.py --compare BASE.json NEW.json

A single run builds the library from ``src/`` of the checkout it sits in,
times the workload's ops for ``--seconds`` seconds, verifies every op
outside the timed region and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (environment, samples, failure reasons)
goes to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_TRIALS = 9
CAP_WARNING = "iteration cap"

# One BLAS thread: the load is this single process, and on a shared host a
# second BLAS thread makes the op times follow the neighbours' load.  Set
# before numpy is first imported; set-up subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(ROOT))
from perfbench import calib, compare, envinfo, layers, workloads  # noqa: E402


def load_symhess():
    """Import symhess from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "symhess" / "__init__.py").is_file():
        sys.exit(f"perfbench: no symhess sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symhess
    import symhess.cli  # not imported by the package itself
    if Path(symhess.__file__).resolve().parent != SRC / "symhess":
        sys.exit(f"perfbench: imported symhess from {symhess.__file__}, not {SRC}")
    return symhess


class SetupTrials:
    """Set-up trials: a fresh interpreter importing symhess, then the
    workload's input generation and file writing.

    The first trial runs before any op and makes the inputs.  The others
    are spread evenly over the run's op time, between ops, so their median
    sees the host states the op times see rather than those of the run's
    first seconds.  Set-up is deterministic, so a repeat leaves the inputs
    as they were.
    """

    def __init__(self, wl, seconds: float):
        self.wl = wl
        self.step = seconds / SETUP_TRIALS
        self.code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import symhess"
        self.times: list[float] = []
        self.trial()

    def trial(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.code], check=True)
        self.wl.setup()
        self.times.append(time.perf_counter() - t0)

    def due(self, elapsed: float) -> None:
        """Run the next trial if ``elapsed`` seconds of ops reached its turn."""
        if len(self.times) < SETUP_TRIALS and elapsed >= len(self.times) * self.step:
            self.trial()


class Harness:
    """Runs timed passes; ``verify`` then checks every op outside the timed region.

    Before each op, outside its timing, the reference kernel takes one
    sample of the host's speed.  The first output of each input is kept and fully checked after the
    timed loop, so no check work runs between timed ops.  Every repeat of
    an input must match the first output's fingerprint.
    """

    def __init__(self, wl, setup: SetupTrials, tracer=None):
        self.wl = wl
        self.setup = setup
        self.tracer = tracer
        self.elapsed = 0.0  # op time so far
        self.first: dict = {}  # item -> (fingerprint, output) of its first op
        self.ops: list[tuple[object, bool]] = []  # (item, matches its first op)
        self.op_times: list[float] = []
        self.speed = calib.SpeedMeter(wl.speed_parts)
        self.attempted = self.failed = self.units = self.units_failed = 0
        self.correct = True
        self.reasons: list[str] = []
        self.checks = []

    def _call(self, item, traced: bool):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                if traced:
                    out = self.tracer.run_op(len(self.ops), lambda: self.wl.run_op(item))
                else:
                    out = self.wl.run_op(item)
            except Exception as exc:  # every exception is an op outcome to verify
                out = workloads.OpError(exc)
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        hits = sum(CAP_WARNING in str(w.message) for w in caught)
        return out, dt, hits

    def run_pass(self, items, traced: bool = False) -> tuple[float, int]:
        """One pass; returns (sum of op times, power-iteration cap hits)."""
        total, hits = 0.0, 0
        for item in items:
            self.setup.due(self.elapsed)
            self.speed.sample()
            out, dt, h = self._call(item, traced)
            self.elapsed += dt
            self.op_times.append(dt)
            total += dt
            hits += h
            fp = out.fingerprint() if isinstance(out, workloads.OpError) else self.wl.fingerprint(out)
            self.first.setdefault(item, (fp, out))
            self.ops.append((item, fp == self.first[item][0]))
        return total, hits

    def verify(self) -> None:
        """Check each input's first output, then tally every op."""
        checks = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for item, (_, out) in self.first.items():
                checks[item] = (self.wl.check_error(out) if isinstance(out, workloads.OpError)
                                else self.wl.check(item, out))
                self.reasons += checks[item].reasons
        self.first.clear()
        self.checks = list(checks.values())
        for item, same in self.ops:
            chk = checks[item]
            self.attempted += 1
            self.units += chk.units
            self.units_failed += chk.units_failed
            self.failed += not (same and chk.ok)
            self.correct = self.correct and same and chk.consistent
            if not same:
                self.reasons.append(f"mismatch: {self.wl.name} {item}: output differs from its first op")

    def accuracy(self, field: str) -> list[float]:
        return [v for chk in self.checks for v in getattr(chk, field)]

    def item_medians(self) -> list[float]:
        """Each input's median op time over the run's passes, every op
        time scaled by the host speed measured around it."""
        scaled: dict = {}
        for (item, _), dt, f in zip(self.ops, self.op_times, self.speed.local_factors()):
            scaled.setdefault(item, []).append(dt * f)
        return [statistics.median(ts) for ts in scaled.values()]


def peak_mib(wl) -> float:
    """Largest tracemalloc peak of one op, over the ops that hold the
    largest inputs (tracemalloc slows an op four to five times)."""
    peak = 0
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for item in wl.peak_items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                wl.run_op(item)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_untraced(wl, setup, seconds: float) -> tuple[Harness, dict, dict]:
    h = Harness(wl, setup)
    items = wl.items()
    passes, elapsed = [], 0.0
    while not passes or elapsed < seconds:
        t, _ = h.run_pass(items)
        passes.append(t)
        elapsed += t
    h.verify()
    unit_ok = (h.units - h.units_failed) / h.units
    samples = {"pass_s": passes, "op_s": h.op_times, "kernel_s": h.speed.samples}
    per_item = h.item_medians()
    metrics = {
        # Sum and median of the inputs' median op times, each op scaled
        # to the reference host speed (calib.py).
        "pass_s": sum(per_item),
        "op_s_p50": _median(per_item),
        "raw_pass_s": _median(passes),
        "ok_frac": unit_ok,
        "red_err_rel_p50": _median(h.accuracy("red_err_rel")),
        "orth_loss_p50": _median(h.accuracy("orth_loss")),
        "peak_mib": peak_mib(wl),
    }
    return h, metrics, samples


def run_traced(wl, setup, seconds: float, lib) -> tuple[Harness, dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, the tracing overhead from the pair of medians."""
    tracer = layers.Tracer(lib)
    h = Harness(wl, setup, tracer)
    items = wl.items()
    plain, traced, hits, elapsed = [], [], 0, 0.0
    # Stop before a pair of passes would overrun --seconds (after one pair).
    while not traced or elapsed + plain[-1] + traced[-1] <= seconds:
        t, _ = h.run_pass(items)
        plain.append(t)
        t, n_hits = h.run_pass(items, traced=True)
        traced.append(t)
        hits += n_hits
        elapsed += plain[-1] + t
    h.verify()
    traced_ops = len(traced) * len(items)
    metrics = tracer.per_layer(traced_ops)
    metrics["core.power_iter_cap_hits"] = hits / traced_ops
    metrics["core.norm_est_rel_err_max"] = max(h.accuracy("norm_est_rel_err"), default=0.0)
    metrics["trace.overhead_frac"] = _median(traced) / _median(plain) - 1.0
    factor = h.speed.factor()
    for k in [k for k in metrics if UNITS.get(k) == "s"]:
        metrics["raw." + k] = metrics[k]
        metrics[k] *= factor  # scaled to the reference host speed (calib.py)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.npz")
    return h, metrics, {"pass_s": plain, "traced_pass_s": traced, "op_s": h.op_times,
                        "kernel_s": h.speed.samples}


def single_run(args) -> int:
    t_import = time.perf_counter()
    lib = load_symhess()
    import_s = time.perf_counter() - t_import
    wl = workloads.make(args.workload, lib, args.seed, args.scale,
                        str(OUT_DIR / f"work-{args.workload}"))
    setup = SetupTrials(wl, args.seconds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl.warmup()
    if args.trace:
        h, metrics, samples = run_traced(wl, setup, args.seconds, lib)
        names = [m["name"] for m in SPEC["per_layer"]]
    else:
        h, metrics, samples = run_untraced(wl, setup, args.seconds)
        # The trials are spread over the run, so the run's speed factor
        # holds for them too.
        metrics["raw_setup_s"] = statistics.median(setup.times)
        metrics["setup_s"] = metrics["raw_setup_s"] * h.speed.factor()
        names = [m["name"] for m in SPEC["end_to_end"]]
    samples["setup_s"] = setup.times
    factor = h.speed.factor()
    shown = {k: {"value": float(metrics[k]), "unit": UNITS[k]} for k in names}
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale,
        "env": envinfo.collect(ROOT, args.seed), "in_process_import_s": import_s,
        "correct": h.correct, "attempted": h.attempted, "failed": h.failed,
        "reductions": h.units, "reductions_failed": h.units_failed,
        "metrics": shown, "speed_factor": factor,
        "extra": {k: v for k, v in metrics.items() if k not in shown},
        "samples": samples, "reasons": h.reasons[:50],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(envinfo.describe(record["env"]))
    print(f"{wl.name}: {h.attempted} ops ({h.units} reductions, "
          f"{h.units_failed} failed), {len(samples['pass_s'])} passes, "
          f"host speed factor {factor:.4f}")
    for k, m in shown.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    for reason in h.reasons[:10]:
        print(f"  note: {reason}")
    print(json.dumps({"correct": h.correct, "attempted": h.attempted, "failed": h.failed,
                      "metrics": shown}))
    return 0


def run_all(args) -> int:
    """Every workload and seed, each in its own process, in one table."""
    seeds = [int(s) for s in args.seeds.split(",")]
    runs, ok = [], True
    for seed in seeds:
        for name in workloads.NAMES:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"result-{name}-seed{seed}-trace{args.trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale, "--out", str(path)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            record = json.loads(path.read_text())
            ok = ok and record["correct"]
            runs.append(record)
            metrics = ", ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                for k, m in record["metrics"].items())
            print(f"{name} seed={seed}: correct={record['correct']} "
                  f"attempted={record['attempted']} failed={record['failed']}: {metrics}",
                  flush=True)
    out = Path(args.out) if args.out else OUT_DIR / "all.json"
    out.write_text(json.dumps({"runs": runs}, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    p.add_argument("--out", help="where to write the result record")
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        print(compare.report(*args.compare, SPEC))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("one of --workload, --all or --compare is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
