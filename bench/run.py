"""wavelearn benchmark: training steps and single-clip predict, closed loop.

Run from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One caller runs one operation at a time until the operations have taken
``--seconds`` of wall time (at least one operation).  Every output is checked;
a failed check counts the operation as failed.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are calibrated against a reference kernel; see REF_S below.

``--trace 1`` first runs the workload untraced for half of ``--seconds``,
then replays the same operations from a fresh set-up with spans around the
layers (see tracing.py), checks that the traced outputs are bitwise equal,
and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# set before numpy loads: one caller and small matrices, so one BLAS thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5

# Timings are reported in calibrated seconds: wall time x REF_S / r, where r
# is the mean time of a fixed reference kernel sampled every REF_PERIOD_S while
# operations run.  On a shared 2-core x86 VM, other tenants slowed every
# process in bursts of a fraction of a second to seconds, and the share of
# slowed time drifted over minutes: wall-clock figures of 10 runs spread by up
# to 40%.  Sampled inside the operations, r tracks that share, so the ratio
# holds where wall time does not.  REF_S is about the kernel's time on that VM
# when idle, where calibrated and wall seconds agree.  Wall-clock figures are
# recorded too.
REF_S = 0.020
REF_STEPS = 2000
REF_PERIOD_S = 0.25
REF_MIN_SAMPLES = 10  # topped up after the loop when operations were too short


END_TO_END_UNITS = {
    "clips_per_s": "clips/s",
    "step_p50_s": "s",
    "clip_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "recurrent.gru_scan.ms": "ms/clip",
    "autodiff.backward.gru_scan.ms": "ms/clip",
    "recurrent.gru_scan.share": "fraction",
    "recurrent.gru_scan.calls": "count/clip",
    "autodiff.nodes.total": "count/clip",
    "autodiff.nodes.concat": "count/clip",
    "autodiff.nodes.gru_scan": "count/clip",
    "recurrent.bigru_forward.self_ms": "ms/clip",
    "recurrent.temporal_attention.ms": "ms/clip",
    "wavelet.frontend_forward.ms": "ms/clip",
    "features.conv_block.ms": "ms/clip",
    "features.spatial_attention.ms": "ms/clip",
    "fusion.head.ms": "ms/clip",
    "autodiff.backward.ms": "ms/clip",
    "autodiff.backward.conv1d.ms": "ms/clip",
    "autodiff.backward.instance_norm.ms": "ms/clip",
    "autodiff.backward.matmul.ms": "ms/clip",
    "autodiff.backward.concat.ms": "ms/clip",
    "autodiff.backward.other.ms": "ms/clip",
    "training.focal_loss.ms": "ms/clip",
    "training.optimizer.ms": "ms/step",
    "training.loss_mean": "nats",
    "data.load_wav.ms": "ms/clip",
    "data.resample.ms": "ms/clip",
    "checkpoint.load.ms": "ms",
    "model.network_init.ms": "ms",
    "trace.overhead_frac": "fraction",
}


def import_program():
    """Import wavelearn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "wavelearn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no wavelearn sources under {src}")
    sys.path.insert(0, str(src))
    import wavelearn

    if Path(wavelearn.__file__).resolve().parent != src / "wavelearn":
        raise SystemExit(f"bench: imported wavelearn from {wavelearn.__file__}, not {src}")


def reference_seconds(clock=time.perf_counter):
    """Wall time of a fixed GRU-like numpy recurrence that uses no wavelearn code."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.normal(size=(16, 48)) * 0.2
    x = rng.normal(size=(REF_STEPS, 48))
    h = np.zeros(16)
    start = clock()
    for t in range(REF_STEPS):
        g = x[t] + h @ w
        r = 1.0 / (1.0 + np.exp(-g[:16]))
        z = 1.0 / (1.0 + np.exp(-g[16:32]))
        h = (1.0 - z) * np.tanh(g[32:] * r) + z * h
    return clock() - start


class ReferenceSampler:
    """Runs the reference kernel from a SIGALRM handler every REF_PERIOD_S.

    The handler runs in the main thread between bytecodes, so each sample
    sees the same CPU as the operation it interrupts.  ``stolen_s`` adds up
    the handler's own time, which callers subtract from what they time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self.stolen_s = 0.0

    def _sample(self, signum, frame):
        start = self.clock()
        self.samples.append(reference_seconds(self.clock))
        self.stolen_s += self.clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class OpLog:
    """Per-operation wall time, clip count, failure and output fingerprint,
    plus the reference-kernel times sampled during the operations."""

    def __init__(self):
        self.seconds = []
        self.clips = []
        self.errors = []
        self.fingerprints = []
        self.ref_s = []
        self.op_ref_s = []  # mean reference time during each operation, or None

    def calibration(self):
        """Factor from wall seconds to calibrated seconds for this run."""
        return REF_S / statistics.fmean(self.ref_s)

    def calibrated_seconds(self):
        """Each operation's time, calibrated by the samples taken during it."""
        run = self.calibration()
        return [s * (REF_S / r if r else run) for s, r in zip(self.seconds, self.op_ref_s)]

    @property
    def attempted(self):
        return len(self.seconds)

    @property
    def failed(self):
        return sum(e is not None for e in self.errors)

    def busy_s(self):
        return sum(self.seconds)

    def ok_clips(self):
        return sum(c for c, e in zip(self.clips, self.errors) if e is None)


def measure(session, seconds=None, n_ops=None, clock=time.perf_counter, log_to=None,
            calibrate=True):
    """Closed loop: run operations until ``seconds`` of them or ``n_ops`` ran.

    With ``calibrate`` the reference kernel is sampled during operations;
    operation times exclude the sampling.
    """
    log_to = log_to or sys.stderr
    log = OpLog()
    with ReferenceSampler(clock) as sampler:
        i = 0
        while (i < n_ops) if n_ops is not None else (i == 0 or log.busy_s() < seconds):
            inp = session.op_input(i)
            stolen, first = sampler.stolen_s, len(sampler.samples)
            if calibrate:
                sampler.resume()
            start = clock()
            try:
                out = session.run(inp)
            except Exception as exc:  # a raising operation is a failed one; keep going
                error, out = f"raised {type(exc).__name__}: {exc}", None
            else:
                error = None
            elapsed = clock() - start
            sampler.pause()
            elapsed -= sampler.stolen_s - stolen
            during = sampler.samples[first:]
            log.op_ref_s.append(statistics.fmean(during) if during else None)
            fingerprint = None
            if error is None:
                error, fingerprint = session.check(inp, out)
            if error is not None:
                print(f"bench: {session.workload.name} op {i} failed: {error}", file=log_to)
            log.seconds.append(elapsed)
            log.clips.append(session.workload.clips_per_op)
            log.errors.append(error)
            log.fingerprints.append(fingerprint)
            i += 1
    log.ref_s = sampler.samples
    if calibrate:
        while len(log.ref_s) < REF_MIN_SAMPLES:
            log.ref_s.append(reference_seconds(clock))
    return log


def timed_setups(workload, seed, workdir, repeats=None):
    """Median set-up time over fresh interpreters: (wall s, calibrated s).

    A fresh process pays per-process work, such as deriving the Daubechies
    filter, that a second set-up in the same process would skip.  Each child
    calibrates its own time with reference samples taken right after it.
    """
    wall, calibrated = [], []
    for _ in range(repeats or SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref_s = (float(v) for v in child.stdout.split()[-2:])
        wall.append(seconds)
        calibrated.append(seconds * REF_S / ref_s)
    return statistics.median(wall), statistics.median(calibrated)


def setup_probe(workload, seed, workdir, clock=time.perf_counter):
    """(set-up seconds, mean reference-kernel seconds right after it)."""
    from workloads import Session

    session = Session(workload, seed, workdir)
    start = clock()
    session.setup()
    seconds = clock() - start
    return seconds, statistics.fmean(reference_seconds(clock) for _ in range(REF_MIN_SAMPLES))


def end_to_end_metrics(log, setup_s, calibrated=True):
    """The end-to-end metrics, in calibrated or in wall-clock time."""
    seconds = log.calibrated_seconds() if calibrated else log.seconds
    run = log.calibration() if calibrated else 1.0
    per_clip = [s / c for s, c in zip(seconds, log.clips)]
    values = {
        "clips_per_s": log.ok_clips() / (log.busy_s() * run),
        "step_p50_s": statistics.median(seconds),
        "clip_p50_ms": 1000.0 * statistics.median(per_clip),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(tracer, log, untraced, losses, is_train):
    """Per-layer figures of one traced replay, normalised per clip or step.

    Layer times are wall times.  ``trace.overhead_frac`` compares the
    replay's throughput with that of the ``untraced`` run.
    """
    stats = tracer.stats()
    clips = log.ok_clips() or 1
    steps = log.attempted if is_train else 1

    def total(name):
        st = stats.get(name)
        return st.total_s if st else 0.0

    def calls(name):
        st = stats.get(name)
        return st.calls if st else 0

    def per_clip_ms(name):
        return 1000.0 * total(name) / clips

    def per_call_ms(name):
        return 1000.0 * total(name) / max(calls(name), 1)

    bigru = stats.get("recurrent.bigru_forward")
    values = {
        "recurrent.gru_scan.ms": per_clip_ms("recurrent.gru_scan"),
        "autodiff.backward.gru_scan.ms": per_clip_ms("autodiff.backward.gru_scan"),
        "recurrent.gru_scan.share": (total("recurrent.gru_scan")
                                     + total("autodiff.backward.gru_scan")) / log.busy_s(),
        "recurrent.gru_scan.calls": calls("recurrent.gru_scan") / clips,
        "autodiff.nodes.total": tracer.counts["autodiff.nodes.total"] / clips,
        "autodiff.nodes.concat": tracer.counts["autodiff.nodes.concat"] / clips,
        "autodiff.nodes.gru_scan": tracer.counts["autodiff.nodes.gru_scan"] / clips,
        "recurrent.bigru_forward.self_ms": 1000.0 * (bigru.self_s if bigru else 0.0) / clips,
        "recurrent.temporal_attention.ms": per_clip_ms("recurrent.temporal_attention"),
        "wavelet.frontend_forward.ms": per_clip_ms("wavelet.frontend_forward"),
        "features.conv_block.ms": per_clip_ms("features.conv_block"),
        "features.spatial_attention.ms": per_clip_ms("features.spatial_attention"),
        "fusion.head.ms": per_clip_ms("fusion.head"),
        "autodiff.backward.ms": per_clip_ms("autodiff.backward"),
        "autodiff.backward.conv1d.ms": per_clip_ms("autodiff.backward.conv1d"),
        "autodiff.backward.instance_norm.ms": per_clip_ms("autodiff.backward.instance_norm"),
        "autodiff.backward.matmul.ms": per_clip_ms("autodiff.backward.matmul"),
        "autodiff.backward.concat.ms": per_clip_ms("autodiff.backward.concat"),
        "autodiff.backward.other.ms": per_clip_ms("autodiff.backward.other"),
        "training.focal_loss.ms": per_clip_ms("training.focal_loss"),
        "training.optimizer.ms": 1000.0 * total("training.optimizer") / steps,
        "training.loss_mean": statistics.fmean(losses) if losses else 0.0,
        "data.load_wav.ms": per_clip_ms("data.load_wav"),
        "data.resample.ms": per_clip_ms("data.resample"),
        "checkpoint.load.ms": per_call_ms("checkpoint.load"),
        "model.network_init.ms": per_call_ms("model.network_init"),
        "trace.overhead_frac": (
            1.0 - (log.ok_clips() / log.busy_s()) / (untraced.ok_clips() / untraced.busy_s())
            if untraced.ok_clips() else 0.0
        ),
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def git_sha(root):
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(session):
    import numpy as np

    from workloads import config_hash

    cfg = session.workload.model
    tape_nodes = session.tape_node_counts()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "config_hash": config_hash(cfg),
        "parameters": session.net.parameter_count(),
        "tape_nodes_total": sum(tape_nodes.values()),
        "tape_nodes": tape_nodes,
    }


def run_workload(workload, seed, seconds, trace, workdir):
    """(result dict, record dict) for one workload; the record adds detail."""
    from tracing import Tracer, installed
    from workloads import Session

    session = Session(workload, seed, workdir)
    if workload.kind == "predict":
        session.write_checkpoint()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        setup_wall_s, setup_s = timed_setups(workload, seed, workdir)
    session.setup()
    session.warm_up()
    if not trace:
        log = measure(session, seconds=seconds)
        # metrics first: peak_rss_mb must not see the tape built for the record
        metrics = end_to_end_metrics(log, setup_s)
        record["wall"] = end_to_end_metrics(log, setup_wall_s, calibrated=False)
        record["reference_s"] = statistics.fmean(log.ref_s)
        record["ops"] = {"seconds": log.seconds, "clips": log.clips,
                         "reference_s_during": log.op_ref_s, "reference_s": log.ref_s}
        record["env"] = environment(session)
        return _result(log.attempted, log.failed, metrics), record

    # no reference sampling here: its handler would land inside the spans
    untraced = measure(session, seconds=seconds / 2.0, calibrate=False)
    replay = Session(workload, seed, workdir)
    tracer = Tracer()
    with installed(tracer):
        replay.setup()
        traced = measure(replay, n_ops=untraced.attempted, calibrate=False)
    mismatches = [
        i for i, (a, b) in enumerate(zip(untraced.fingerprints, traced.fingerprints))
        if a != b and traced.errors[i] is None
    ]
    for i in mismatches:
        print(f"bench: {workload.name} op {i}: traced output differs from untraced",
              file=sys.stderr)
    record["env"] = environment(session)
    record["trace_missing"] = tracer.missing
    metrics = per_layer_metrics(tracer, traced, untraced, replay.losses,
                                workload.kind == "train")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + len(mismatches)
    return _result(attempted, failed, metrics), record


def _result(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_metrics(name, result, record):
    print(f"[{name}] env {json.dumps(record['env'], sort_keys=True)}")
    for missing in record.get("trace_missing", ()):
        print(f"[{name}] span missing: {missing} not found; reported as 0")
    wall = record.get("wall", {})
    for metric, m in result["metrics"].items():
        raw = f"  (wall {wall[metric]['value']:.6g})" if metric in wall else ""
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}{raw}")
    if "reference_s" in record:
        print(f"[{name}] reference kernel mean {1000 * record['reference_s']:.4g} ms "
              f"(calibrated = wall x {1000 * REF_S:g} ms / this)")
    print(f"[{name}] operations: {result['attempted']} attempted, {result['failed']} failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="train_default, predict_default, train_nogru or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON here")
    # internal: time one cold set-up in this fresh process, print the seconds
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        print(*setup_probe(WORKLOADS[names[0]], args.seed, Path(args.setup_probe)))
        return 0

    # a terminated run still removes its scratch directory and set-up children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results, records = {}, []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        for name in names:
            result, record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace), Path(tmp))
            print_metrics(name, result, record)
            record["result"] = result
            results[name] = result
            records.append(record)
    if len(names) == 1:
        final = results[names[0]]
    else:
        # one process runs every workload; peak_rss_mb is the process peak so far
        final = _result(
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        )
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
