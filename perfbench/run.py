#!/usr/bin/env python3
"""Two-clock AMR benchmark: host and modelled time on four pinned workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload amr_steady --seed 3 --seconds 25
    python3 perfbench/run.py --seed 1        # every workload, as a table

One run builds, steps and checks ``RunSession``s of one workload in this
single process for ``--seconds``.  Each session is set up (timed),
stepped a fixed number of steps (each step timed), and its final field
summary, dt history and patch counts are compared bitwise with a
reference run of the same inputs under the default ``ExecutionPolicy()``,
made once per run before the timed sessions.  For the default seed the
reference itself is compared with the digest recorded in
``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half traced (spans around the layer calls, see
``spans.py``), adds one counting-only session, and prints the per-layer
metrics.  The last line of standard output is one JSON object; the exit
code is 1 when any session raised or failed the check.  Spans, the
calibration loop timings and the drawn parameters are written to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"


def _require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program sources ({SRC}) are missing; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))


_require_program()

import metrics as M  # noqa: E402
import spans as S  # noqa: E402
from repro.api import ExecutionPolicy, RunSession  # noqa: E402
from repro.obs import registry_from_run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: least set-up samples per run; sessions give theirs, bare set-ups the rest
SETUP_SAMPLES = 5


#: the calibration probe's time at the reference machine speed; host
#: times are reported scaled to it
PROBE_REF_S = 0.009


def probe_s() -> float:
    """Seconds for a fixed pure-Python loop that touches no program code.

    It runs before every timed step and set-up.  On a shared host the
    speed at which this machine runs Python drifts by tens of percent over
    minutes; the run's median probe tracks that drift (a NumPy loop
    tracks it less well), so a change in the probe is the machine's speed
    changing, not the program's.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def digest(result) -> str:
    """Bitwise identity of a finished run: fields, dt history, patches."""
    record = {
        "fields": {k: float(v).hex() for k, v in
                   sorted(result.final_fields.items())},
        "dt": [float(dt).hex() for dt in result.dt_history],
        "patches": [len(level) for level in result.sim.hierarchy],
    }
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def run_session(workload, params, *, recorder=None, counter=None,
                execution=None) -> M.Session:
    """Set up, step and summarise one session; never raises."""
    out = M.Session()
    gc.collect()
    try:
        out.probe_s.append(probe_s())
        t0 = time.perf_counter()
        sess = RunSession(workload.config(params, execution))
        out.setup_s = time.perf_counter() - t0
        sim = sess.sim
        counters0 = registry_from_run(sim).snapshot()
        timers0 = sim.timer_summary()
        for _ in range(workload.steps):
            out.cells.append(sim.total_cells())
            out.probe_s.append(probe_s())
            hooks = [h for h in (recorder, counter) if h is not None]
            for h in hooks:
                h.enabled = True
            sid = recorder.begin(S.STEP) if recorder is not None else None
            t0 = time.perf_counter()
            sess.advance(1)
            out.step_s.append(time.perf_counter() - t0)
            if sid is not None:
                recorder.end(sid)
            for h in hooks:
                h.enabled = False
        result = sess.result()
    except Exception as exc:  # a failed session is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    snap = registry_from_run(result.sim).snapshot()
    out.counters = _delta(snap["counters"], counters0["counters"])
    out.timers = _delta(result.timers, timers0)
    gauges = snap["gauges"]
    out.hidden_s = (gauges.get("overlap.hidden_seconds", 0.0)
                    - counters0["gauges"].get("overlap.hidden_seconds", 0.0))
    out.device_peak_bytes = gauges.get("device.peak_bytes", 0.0)
    out.grind = result.grind_time
    out.patches = [len(level) for level in result.sim.hierarchy]
    out.digest = digest(result)
    return out


def timed_sessions(workload, params, seconds: float, **hooks) -> list:
    """Sessions back to back while the next one should end within
    ``seconds`` (judged by the last one's length); at least one."""
    sessions = []
    t_end = time.perf_counter() + seconds
    last = 0.0
    while not sessions or time.perf_counter() + last <= t_end:
        t0 = time.perf_counter()
        sessions.append(run_session(workload, params, **hooks))
        last = time.perf_counter() - t0
    return sessions


def bare_setups(workload, params, count: int) -> tuple[list, list]:
    """Set-up times of sessions built and dropped; the probe before each."""
    times, probes = [], []
    for _ in range(count):
        gc.collect()
        probes.append(probe_s())
        t0 = time.perf_counter()
        sess = RunSession(workload.config(params))
        times.append(time.perf_counter() - t0)
        sess.close()
    return times, probes


def reference_digest(workload, params) -> str | None:
    """Digest of the default-policy run of the same inputs (not timed)."""
    ref = run_session(workload, params, execution=ExecutionPolicy())
    return ref.digest if ref.ok else None


def check(sessions, ref: str | None) -> int:
    """Mark each session passed or not; return the number failed."""
    for s in sessions:
        s.passed = s.ok and ref is not None and s.digest == ref
    return sum(not s.passed for s in sessions)


def _emit(label: str, payload) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    params = workload.params(seed)
    run_id = f"{name}-s{seed}-t{int(trace)}-{time.time_ns()}"
    _emit("run", {"workload": name, "seed": seed, "params": params,
                  "steps_per_session": workload.steps, "run_id": run_id})
    # the untimed reference run goes first, so it also takes the process's
    # first-use costs (heap growth, cold code paths) off the timed sessions
    ref = reference_digest(workload, params)
    recorded = json.loads(REFERENCE.read_text())["digests"].get(name)
    if seed == DEFAULT_SEED and ref != recorded:
        _emit("reference", {"error": "default-seed reference digest differs "
                            "from reference.json", "digest": ref})
        ref = None
    spans = []
    if not trace:
        sessions = timed_sessions(workload, params, seconds)
        measured = sessions
    else:
        measured = timed_sessions(workload, params, seconds / 2)
        with S.SpanRecorder(run_id) as rec:
            traced = timed_sessions(workload, params, seconds / 2,
                                    recorder=rec)
        with S.CallCounter() as counter:
            counted = run_session(workload, params, counter=counter)
        sessions = measured + traced + [counted]
    # the high-water mark of the sessions, before bare set-ups can raise it
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [s.setup_s for s in measured if s.ok]
    extra, probes = bare_setups(workload, params,
                                max(0, SETUP_SAMPLES - len(setups)))
    setups += extra
    probe = statistics.median(
        [t for s in measured for t in s.probe_s] + probes)

    failed = check(sessions, ref)
    errors = sorted({s.error for s in sessions if s.error})

    if not trace:
        values = M.end_to_end(sessions, setups, peak_rss_kib,
                              PROBE_REF_S / probe)
        table = M.END_TO_END
    else:
        steps = sum(len(s.step_s) for s in traced if s.ok)
        values = {**M.manifest_layers(measured),
                  **M.traced_layers(rec.summary(), steps, S.LAYER_SPANS,
                                    S.STEP),
                  **M.counted_layers(counter.counts,
                                     len(counted.step_s) if counted.ok else 0)}
        values["trace.overhead_frac"] = 1.0 - M.ratio(
            M.cell_steps_per_s(traced), M.cell_steps_per_s(measured))
        table = M.PER_LAYER
        spans = [s.as_list() for s in rec.spans]
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in table}

    step_samples = sum(len(s.step_s) for s in measured if s.ok)
    diag = {"sessions": len(sessions), "failed": failed, "errors": errors,
            "step_samples": step_samples, "setup_samples": len(setups),
            "patches": sorted({tuple(s.patches) for s in sessions if s.ok}),
            "grinds": sorted({s.grind for s in measured if s.ok}),
            "probe_ms": probe * 1e3,
            "unscaled": M.end_to_end(measured, setups, peak_rss_kib, 1.0),
            "reference": ref}
    _emit("diagnostics", diag)
    record = {"run_id": run_id, "workload": name, "seed": seed,
              "params": params, **diag, "metrics": metrics,
              "session_times": [{"setup_s": s.setup_s, "step_s": s.step_s}
                                for s in sessions],
              "spans": spans}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record))

    print(json.dumps({"correct": failed == 0, "attempted": len(sessions),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another; a table."""
    worst = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            worst = max(worst, 1)
            continue
        result = json.loads(lines[-1])
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:32s} {v['value']:>14.6g} {v['unit']}")
    return worst


def record_reference() -> int:
    """Write the default seed's reference digests to ``reference.json``."""
    digests = {}
    for name, workload in WORKLOADS.items():
        ref = reference_digest(workload, workload.params(DEFAULT_SEED))
        if ref is None:
            sys.exit(f"perfbench: the reference run of {name} raised")
        digests[name] = ref
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json for the default seed")
    args = ap.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
