"""Time-to-proven-optimum benchmark for the OLSQ2 engine.

Run from the repository root::

    python3 perfbench/run.py --workload queko_depth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
records the host, interpreter, kernel and source.  See perfbench/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KERNEL_SRC = SRC / "repro" / "sat" / "kernel"
BUILD_DIR = ROOT / ".bench_build" / "perfbench-kernel"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-trace"

#: Set-ups per run: this process plus the rest in fresh child processes.
SETUPS = 5

#: Timings are reported at a fixed host speed.  A shared VM's speed drifts
#: by 10-15% over minutes, and a fixed reference task that runs no program
#: code drifts with it, so the timed loop samples that task between rounds
#: and every timing is scaled by REFERENCE_S / (the run's median sample).
#: REFERENCE_S is about one sample on the 2-CPU VM of the README's figures.
REFERENCE_S = 0.005
#: One reference sample per this much loop time (at least one per round).
REFERENCE_EVERY_S = 1.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy measurement."""


class Reference:
    """The reference task, in a child process of its own: ``sorted`` over
    300,000 separate float objects of equal value, listed in a fixed
    shuffled order.  Sorting them is one pass of comparisons that chase
    pointers through about 7 MB in random order, the memory-latency-bound
    kind of work the solver does.  The child imports no program code and
    shares no memory with it, so the program cannot speed it up or slow it
    down, and its memory and CPU count toward no metric."""

    TASK = """
import random, sys, time
values = [value * 1.0 for value in [0.5] * 300_000]
random.Random(0).shuffle(values)
print("ready", flush=True)
for _ in sys.stdin:
    sorted(values)  # warms the caches
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        sorted(values)
        walls.append(time.perf_counter() - t0)
    print(repr(min(walls)), flush=True)
"""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", self.TASK], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.samples: list = []
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise BenchError("the reference task did not start")

    def sample(self) -> None:
        """One sample: the faster of two sorts after one that warms the caches."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the reference task exited")
        self.samples.append(float(line))

    def scale(self) -> float:
        """Factor that turns this run's timings into reference-speed ones."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def ensure_kernel() -> float:
    """Build the compiled kernel into the build directory (once per source
    digest) and make ``repro.sat.kernel`` load it.  Returns the build wall
    (0 when an earlier run built it).  Refuses the pure-Python fallback,
    which ``kernel="auto"`` would pick silently."""
    digest = hashlib.sha256()
    for name in ("kernel.c", "build.py"):
        digest.update((KERNEL_SRC / name).read_bytes())
    digest.update(sys.version.encode())
    digest.update(platform.machine().encode())
    target = BUILD_DIR / digest.hexdigest()[:16]
    module_dir = target / "repro" / "sat" / "kernel"
    built = 0.0
    if not any(module_dir.glob("_native*.so")):
        started = time.perf_counter()
        staging = target.with_name(target.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        # A child process compiles, so the build's imports never count
        # toward this process's peak memory.
        compiled = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.sat.kernel.build import ffibuilder; "
             "ffibuilder().compile(tmpdir=sys.argv[1])", str(staging)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=600,
        )
        if compiled.returncode != 0:
            raise BenchError(f"kernel build failed: {compiled.stderr.strip()[-500:]}")
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
        built = time.perf_counter() - started
    import repro.sat.kernel as kernel

    kernel.__path__.insert(0, str(module_dir))
    backend = kernel.resolve_backend("auto")
    loaded = kernel.load_native()
    if backend != "native" or loaded is None:
        raise BenchError(
            f"solver resolves to the {backend!r} kernel "
            f"({kernel.native_error()}); refusing to time the Python fallback"
        )
    if Path(loaded.__file__).resolve().parent != module_dir.resolve():
        raise BenchError(f"loaded a kernel from {loaded.__file__}, not this build")
    return built


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    import repro.sat.kernel as kernel

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "kernel": kernel.resolve_backend("auto"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def setup_workload(name: str, seed: int, trace: bool):
    """Everything before the first timed op: devices, pool fork and one
    checked warm-up pass."""
    from workloads import WORKLOADS

    if trace:
        import spans

        spans.install()  # before the pool forks, so the worker has it too
    workload = WORKLOADS[name](seed)
    workload.start()
    ops = workload.inputs(0)
    workload.run(ops, lambda fn: fn())
    failures = check_ops(workload, ops)
    if failures:
        workload.close()
        raise BenchError(f"warm-up pass failed: {failures[:3]}")
    return workload


def check_ops(workload, ops) -> list:
    failures = []
    for op in ops:
        if op.error is None:
            try:
                workload.check(op)
            except Exception as exc:  # noqa: BLE001 - a wrong answer fails the op
                op.error = f"{type(exc).__name__}: {exc}"
        if op.error is not None:
            failures.append(f"{op.kind}: {op.error}")
    return failures


def child_setups(args, n: int) -> list:
    """Set-up times of ``n`` fresh processes doing exactly this run's set-up."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args, origin: float, reference: Reference | None = None) -> dict:
    """One run; ``origin`` is where its set-up time starts counting.
    Untimed runs (set-up only, traced) take no ``reference``."""
    trace = bool(args.trace)
    workload = setup_workload(args.workload, args.seed, trace)
    setup_s = time.perf_counter() - origin
    if args.setup_only:
        workload.close()
        return {"setup_s": setup_s}
    if trace:
        import spans

        rec = spans.REC
    pids = workload.worker_pids()
    if reference is not None:
        reference.samples.clear()
    cpu0 = time.process_time() + sum(proc_cpu_s(pid) for pid in pids)
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    walls = {False: 0.0, True: 0.0}
    n_ops = {False: 0, True: 0}
    latencies, failures = [], []
    attempted = 0
    templates = [0, 0]
    coalesced = 0
    rnd = 0
    while True:
        rnd += 1
        ops = workload.inputs(rnd)
        if args.smoke:
            ops = ops[:1]
        # The traced run alternates traced and untraced rounds; the
        # untraced ones price the tracing overhead.
        traced = trace and rnd % 2 == 0
        if traced:
            t_before, c_before = workload.template_counts(), workload.coalesced()
            rec.enabled = True
            wall = workload.run(ops, rec.run_op)
            rec.enabled = False
            t_after = workload.template_counts()
            templates[0] += t_after[0] - t_before[0]
            templates[1] += t_after[1] - t_before[1]
            coalesced += workload.coalesced() - c_before
        else:
            wall = workload.run(ops, lambda fn: fn())
        walls[traced] += wall
        n_ops[traced] += len(ops)
        attempted += len(ops)
        failures += check_ops(workload, ops)
        latencies += [op.wall for op in ops if op.error is None and not traced]
        if reference is not None:
            reference.sample()
            while len(reference.samples) * REFERENCE_EVERY_S < time.perf_counter() - loop_start:
                reference.sample()
        if (args.smoke or time.perf_counter() >= deadline) and (not trace or traced):
            break
    cpu = time.process_time() + sum(proc_cpu_s(pid) for pid in pids) - cpu0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + sum(
        proc_peak_rss_mb(pid) for pid in pids
    )
    certify_started = time.perf_counter()
    run_failures = workload.certify()
    certify_s = time.perf_counter() - certify_started
    workload.close()
    for failure in failures + run_failures:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    ok = attempted - len(failures)
    out = {
        "correct": not run_failures,
        "attempted": attempted,
        "failed": len(failures),
    }
    if trace:
        recorded = rec.drain()
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        spans.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", recorded)
        metrics, trace_failures = spans.layer_metrics(
            recorded, templates, coalesced,
            overhead=(walls[True] / n_ops[True]) / (walls[False] / n_ops[False]),
        )
        out["correct"] = out["correct"] and not trace_failures
        for failure in trace_failures:
            print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    else:
        setups = [setup_s] + (child_setups(args, SETUPS - 1) if not args.smoke else [])
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok / walls[False],
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "cpu_s_per_op": cpu / max(ok, 1),
        }
        # The drift is slow next to a run, so the loop's scale holds for the
        # set-ups before and after it too.
        scale = reference.scale()
        metrics = {
            "setup_s": (raw["setup_s"] * scale, "s"),
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "latency_p50_s": (raw["latency_p50_s"] * scale, "s"),
            "cpu_s_per_op": (raw["cpu_s_per_op"] * scale, "s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
        print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rnd,
                          "ops": ok, "loop_s": walls[False], "certify_s": certify_s,
                          "setups_s": setups, "reference_samples": len(reference.samples),
                          "scale": scale, "raw": raw}), file=sys.stderr)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("queko_depth", "swap_descent", "service_batch"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload, every check, no timing claims")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    reference = None
    try:
        # Set-up time counts from process start, less the reference task's
        # start and a one-off kernel build.
        started = time.perf_counter()
        if not args.setup_only and (args.smoke or not args.trace):
            reference = Reference()
        origin = PROCESS_START + (time.perf_counter() - started) + ensure_kernel()
        if args.setup_only:
            print(json.dumps(measure(args, origin)))
            return 0
        print(json.dumps({"env": environment()}))
        if not args.smoke:
            print(json.dumps(measure(args, origin, reference)))
            return 0
        ok = True
        for name in ("queko_depth", "swap_descent", "service_batch"):
            for trace in (0, 1):
                args.workload, args.trace = name, trace
                result = measure(args, time.perf_counter(), None if trace else reference)
                print(json.dumps({"workload": name, "trace": trace, **result}))
                ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if reference is not None:
            reference.close()


if __name__ == "__main__":
    sys.exit(main())
