"""CDC lake benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Prints a report and, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``. The full
result, stamped with its config and host, is written under ``.perfbench/``
(``results/`` and, for traced runs, the spans in ``traces/``).

    python3 perfbench/run.py --compare A.json B.json

prints the metric deltas of two stamped results, and refuses when their
configs differ. Exit codes: 0 ok, 1 correctness gate tripped, 2 usage or
missing package, 3 config mismatch on ``--compare``.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
BENCH_VERSION = 1
OBJECT_STORE_BYTES = 256 * 2**20


def process_age_s() -> float:
    """Seconds since this process started (counts interpreter start-up)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def host_stamp(t0: list[int], t1: list[int]) -> dict:
    """vCPUs, load, and sys / steal share of CPU time between two samples."""
    d = [b - a for a, b in zip(t0, t1)]
    total = max(sum(d), 1)
    return {"vcpus": os.cpu_count(), "load1": os.getloadavg()[0],
            "sys_pct": 100.0 * d[2] / total,
            "steal_pct": 100.0 * (d[7] if len(d) > 7 else 0) / total}


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and every process below it (the Ray
    head, raylet and workers), sampled every ``period`` seconds."""

    def __init__(self, period: float = 0.25):
        super().__init__(daemon=True)
        self.period, self.peak = period, 0
        self._stop_evt = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def tree(self) -> list[int]:
        kids: dict[int, list[int]] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
            kids.setdefault(ppid, []).append(int(name))
        out, todo = [], [os.getpid()]
        while todo:
            p = todo.pop()
            out.append(p)
            todo += kids.get(p, [])
        return out

    def sample(self) -> None:
        rss = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/statm") as f:
                    rss += int(f.read().split()[1]) * self._page
            except OSError:
                pass
        self.peak = max(self.peak, rss)

    def run(self) -> None:
        while not self._stop_evt.wait(self.period):
            self.sample()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join()
        self.sample()


def ray_temp_dir(work: str) -> str:
    """Ray's session dir inside the checkout when its socket paths fit the
    108-byte AF_UNIX limit (session name and socket add ~62 bytes); else a
    private dir under the system temp dir, removed at exit."""
    d = os.path.join(work, "ray")
    if len(d) <= 44:
        return d
    return tempfile.mkdtemp(prefix="pb-ray-")


def start_ray(temp_dir: str):
    import ray

    # workers import the package (and nothing of the benchmark) from the root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    from ray.data import DataContext

    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    ctx.print_on_execution_start = False
    import ray.data as rd

    # warm the worker pool: the first task of a worker pays its start-up and
    # the package import
    # warm every worker: each task holds its worker a moment so the pool
    # spreads over all of them, and each worker pays its start-up and the
    # package import here rather than in the first timed op
    n = os.cpu_count()
    rd.range(n, override_num_blocks=n).map_batches(
        _warm, batch_size=None, concurrency=n).count()
    return ray


def _warm(batch):
    import go_tfdata_ray.cdc.engine  # noqa: F401
    import go_tfdata_ray.pipelines.loader  # noqa: F401
    time.sleep(0.5)
    return batch


def stop_ray(ray, sampler: RssSampler | None) -> None:
    """Shut Ray down and wait until every process it started has exited."""
    pids = [p for p in (sampler.tree() if sampler else []) if p != os.getpid()]
    ray.shutdown()
    deadline = time.time() + 15
    while pids and time.time() < deadline:
        pids = [p for p in pids if os.path.exists(f"/proc/{p}")
                and _state(p) not in ("Z", "X")]
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, 9)
        except OSError:
            pass


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def config_key(res: dict) -> dict:
    """What must match for two results to be comparable: everything in the
    stamp except the seed and the host's momentary load readings."""
    c = dict(res["config"])
    c["wal_params"] = {k: v for k, v in c["wal_params"].items() if k != "seed"}
    c.pop("seed", None)
    return c


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ka, kb = config_key(a), config_key(b)
    if ka != kb:
        diff = sorted(k for k in set(ka) | set(kb) if ka.get(k) != kb.get(k))
        print(f"refusing to compare: configs differ in {', '.join(diff)}")
        for k in diff:
            print(f"  {k}: {ka.get(k)!r} vs {kb.get(k)!r}")
        return 3
    for name, m in a["metrics"].items():
        if name in b["metrics"]:
            va, vb = m["value"], b["metrics"][name]["value"]
            rel = (vb - va) / va if va else float("nan")
            print(f"{name:32s} {va:14.4f} -> {vb:14.4f} {m['unit']:10s} {rel:+.1%}")
    return 0


def layer_metrics(run, wall: dict) -> dict[str, tuple]:
    """Per-layer metrics of a traced run, from span self times and counts."""
    st = run.rec.self_times()
    c = run.rec.counts
    apply_self = sum(st.get(k, 0.0) for k in ("wal.read", "apply.normalize",
                                               "apply.encode_write"))
    own = run.rec.self_of()
    exec_wait = sum(own[i] for i, s in enumerate(run.rec.spans)
                    if s[0] == "apply.epoch")

    def ratio(a, b):
        return a / b if b else 0.0

    pack_rows = c.get("pack.rows", 0.0)
    n_spans = sum(1 for s in run.rec.spans if not s[5])
    return {
        "wal.read_s": (st.get("wal.read", 0.0), "s"),
        "wal.list_s": (st.get("wal.list", 0.0), "s"),
        "wal.bytes_read": (c.get("wal.bytes_read", 0.0), "bytes"),
        "apply.normalize_s": (st.get("apply.normalize", 0.0), "s"),
        "apply.encode_write_s": (st.get("apply.encode_write", 0.0), "s"),
        "apply.events_in": (c.get("apply.events_in", 0.0), "count"),
        "apply.rows_out": (c.get("apply.rows_out", 0.0), "count"),
        "apply.combine_ratio": (ratio(c.get("apply.rows_out", 0.0),
                                      c.get("apply.events_in", 0.0)), "ratio"),
        "apply.run_files": (c.get("apply.run_files", 0.0), "count"),
        "apply.bytes_written": (c.get("apply.bytes_written", 0.0), "bytes"),
        "apply.write_amp": (ratio(c.get("apply.bytes_written", 0.0),
                                  c.get("wal.bytes_read", 0.0)), "ratio"),
        "apply.kernel_events_per_s": (ratio(c.get("apply.events_in", 0.0),
                                            apply_self), "events/s"),
        "apply.exec_wait_s": (exec_wait, "s"),
        "exec.overhead_s": (st.get("exec", 0.0), "s"),
        "manifest.commit_s": (st.get("manifest.commit", 0.0), "s"),
        "manifest.load_s": (st.get("manifest.load", 0.0), "s"),
        "manifest.commits": (c.get("manifest.commits", 0.0), "count"),
        "manifest.fenced": (c.get("manifest.fenced", 0.0), "count"),
        "plan.resolve_s": (st.get("plan.resolve", 0.0), "s"),
        "plan.intent_segments_read": (c.get("plan.intent_segments_read", 0.0), "count"),
        "plan.fragments": (c.get("plan.fragments", 0.0), "count"),
        "read.s": (sum(st.get(k, 0.0) for k in ("read", "read.footer",
                                                "read.rowgroups")), "s"),
        "read.footer_s": (st.get("read.footer", 0.0), "s"),
        "read.footers_opened": (c.get("read.footers_opened", 0.0), "count"),
        "read.row_groups_read": (c.get("read.row_groups_read", 0.0), "count"),
        "read.row_groups_pruned": (c.get("read.row_groups_pruned", 0.0), "count"),
        "read.bytes_read": (c.get("read.bytes_read", 0.0), "bytes"),
        "merge.s": (st.get("merge", 0.0), "s"),
        "merge.rows_in": (c.get("merge.rows_in", 0.0), "count"),
        "merge.rows_out": (c.get("merge.rows_out", 0.0), "count"),
        "merge.read_amp": (ratio(c.get("merge.rows_in", 0.0),
                                 c.get("merge.rows_out", 0.0)), "ratio"),
        "compact.s": (st.get("compact", 0.0), "s"),
        "compact.bytes_rewritten": (c.get("compact.bytes_rewritten", 0.0), "bytes"),
        "compact.partitions": (c.get("compact.partitions", 0.0), "count"),
        "pack.s": (st.get("pack", 0.0), "s"),
        "pack.fill_ratio": (ratio(c.get("pack.content_tokens", 0.0),
                                  pack_rows * 2048), "ratio"),
        "loader.wait_s": (c.get("loader.wait_s", 0.0), "s"),
        "lake.fragments_per_partition": (run.lake_stats.get(
            "lake.fragments_per_partition", 0.0), "count"),
        "lake.bytes": (run.lake_stats.get("lake.bytes", 0.0), "bytes"),
        "trace.overhead_s": (n_spans * wall["span_cost_s"], "s"),
        "trace.wall_delta_s": (wall_delta(run.rec.op_walls(),
                                          wall.get("untraced_op_walls") or {}), "s"),
    }


def layer_table(run, layers: dict, wall: dict) -> list[str]:
    """The per-layer report: self time per layer, op walls and how much of
    them the layers cover, and every ratio with its base."""
    from layers import LAYER_ORDER, bills_to_exec

    st = run.rec.self_times()
    ops = [s for s in run.rec.spans if s[0].startswith("op.") and not s[5]]
    op_wall = sum(s[2] - s[1] for s in ops)
    lines = [f"layer self times over {len(ops)} ops, {op_wall:.3f} s of op wall:"]
    for name in LAYER_ORDER:
        v = st.get(name, 0.0)
        lines.append(f"  {name:20s} {v:10.4f} s  {v / op_wall if op_wall else 0:7.1%}")
    covered = sum(st.get(n, 0.0) for n in LAYER_ORDER if n != "exec")
    lines.append(f"  {'(layers)':20s} {covered:10.4f} s   + exec.overhead_s "
                 f"{st.get('exec', 0.0):.4f} s = {covered + st.get('exec', 0.0):.4f}"
                 f" s vs op wall {op_wall:.4f} s")
    by_kind: dict[str, list] = {}
    for i, s in enumerate(run.rec.spans):
        if s[0].startswith("op.") and not s[5]:
            by_kind.setdefault(s[0], []).append(i)
    own = run.rec.self_of()
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(run.rec.spans):
        kids.setdefault(s[3], []).append(i)

    def split(i):
        """(wall, exec remainder) of one op span and its exec-billed children."""
        s = run.rec.spans[i]
        rem = own[i] if bills_to_exec(s[0]) else 0.0
        rem += sum(own[k] for k in kids.get(i, [])
                   if run.rec.spans[k][0] == "apply.epoch")
        return s[2] - s[1], rem

    lines.append("per op kind: n, wall, layers, exec remainder (share of wall)")
    for kind, idx in sorted(by_kind.items()):
        w = sum(split(i)[0] for i in idx)
        r = sum(split(i)[1] for i in idx)
        lines.append(f"  {kind:14s} {len(idx):5d} {w:9.3f} s  layers {w - r:9.3f} s"
                     f"  exec {r:8.3f} s ({r / w if w else 0:.1%})")
    c = run.rec.counts
    lines += [
        f"ratios: apply.combine_ratio = rows_out {c.get('apply.rows_out', 0):.0f}"
        f" / events_in {c.get('apply.events_in', 0):.0f}",
        f"        apply.write_amp = bytes_written {c.get('apply.bytes_written', 0):.0f}"
        f" / WAL bytes {c.get('wal.bytes_read', 0):.0f}",
        f"        merge.read_amp = rows_in {c.get('merge.rows_in', 0):.0f}"
        f" / rows_out {c.get('merge.rows_out', 0):.0f}",
        f"        pack.fill_ratio = content tokens {c.get('pack.content_tokens', 0):.0f}"
        f" / (rows {c.get('pack.rows', 0):.0f} x 2048)",
        f"tracing: {sum(1 for s in run.rec.spans if not s[5])} spans x "
        f"{wall['span_cost_s'] * 1e6:.2f} us = {layers['trace.overhead_s'][0]:.4f} s;"
        f" replicas ran {run.rec.replica_s:.3f} s off the clock",
    ]
    if wall.get("untraced_op_walls"):
        lines.append(f"tracing wall delta vs the untraced run of this seed: "
                     f"{layers['trace.wall_delta_s'][0]:+.3f} s (per-op means x "
                     f"traced op counts)")
    return lines


def wall_delta(traced: dict, untraced: dict) -> float:
    """Traced minus untraced op wall, per op kind at the traced op counts."""
    d = 0.0
    for kind, (n, total) in traced.items():
        if kind in untraced and untraced[kind][0]:
            d += total - n * untraced[kind][1] / untraced[kind][0]
    return d


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--plant-wrong-row", action="store_true",
                    help="upsert one wrong row before the gate (it must trip)")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "go_tfdata_ray")):
        print(f"no go_tfdata_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    from workloads import SIZES, WORKLOADS, Run, wal_params, warm_paths

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    bench = load_benchmark()
    ticks0 = cpu_ticks()
    load_start = os.getloadavg()[0]
    os.makedirs(STATE, exist_ok=True)
    # one Ray workload at a time per checkout
    lock = open(os.path.join(STATE, "lock"), "w")
    t = time.perf_counter()
    fcntl.flock(lock, fcntl.LOCK_EX)
    lock_wait_s = time.perf_counter() - t  # not set-up: left out of setup_s
    for name in os.listdir(STATE):  # leftovers of a killed run
        if name.startswith("work-"):
            shutil.rmtree(os.path.join(STATE, name), ignore_errors=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    os.makedirs(work)
    temp = ray_temp_dir(work)
    ray = sampler = run = None
    try:
        ray = start_ray(temp)
        warm_paths(work)
        ready_s = process_age_s() - lock_wait_s
        ticks1 = cpu_ticks()
        sampler = RssSampler()
        sampler.start()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size, work, args.plant_wrong_row)
        phase = [("ray", ready_s)]
        t = time.perf_counter()
        run.setup()
        setup_s = ready_s + statistics.median(run.setup_reps)
        run.prepare()
        phase.append(("setup", time.perf_counter() - t))
        t = time.perf_counter()
        run.timed()
        phase.append(("timed", time.perf_counter() - t))
        t = time.perf_counter()
        run.gate()
        phase.append(("gate", time.perf_counter() - t))
        run.close()
    finally:
        if sampler is not None:
            sampler.stop()
        if ray is not None:
            stop_ray(ray, sampler)
        shutil.rmtree(work, ignore_errors=True)
        if temp != os.path.join(work, "ray"):
            shutil.rmtree(temp, ignore_errors=True)
        fcntl.flock(lock, fcntl.LOCK_UN)
        lock.close()

    from layers import span_cost_s

    e2e = run.end_to_end(setup_s, sampler.peak / 2**20)
    stamp = {"bench_version": BENCH_VERSION, "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds, "size": args.size,
             "trace": args.trace, "ray_num_cpus": os.cpu_count(),
             "object_store_bytes": OBJECT_STORE_BYTES, "sizes": SIZES[args.size],
             "wal_params": dataclasses.asdict(wal_params(
                 args.size, args.seed, args.workload == "tail_mixed")),
             "vcpus": os.cpu_count()}
    host = {**host_stamp(ticks0, ticks1), "load1_at_start": load_start}
    counts = run.sample_counts()
    correct = not run.failed_ops
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {run.attempted} ops, {len(run.failed_ops)} failed")
    print(f"host: {os.cpu_count()} vCPU, Ray num_cpus {os.cpu_count()}, "
          f"load {load_start:.2f}, sys {host['sys_pct']:.1f}%, "
          f"steal {host['steal_pct']:.1f}% during start-up")
    print("samples: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print("phases: " + ", ".join(f"{k} {v:.2f} s" for k, v in phase)
          + f", total {process_age_s():.2f} s")
    for name, (v, unit) in e2e.items():
        print(f"  {name:24s} {v:14.4f} {unit}")
    for err in run.errors:
        print(f"FAILED: {err}")
    if args.trace:
        wall = {"span_cost_s": span_cost_s()}
        prev = os.path.join(STATE, "results",
                            f"{args.workload}-seed{args.seed}-trace0.json")
        if os.path.exists(prev):
            with open(prev) as f:
                p = json.load(f)
            if config_key(p) == config_key({"config": {**stamp, "trace": 0}}):
                wall["untraced_op_walls"] = p.get("op_walls")
        layers = layer_metrics(run, wall)
        for line in layer_table(run, layers, wall):
            print(line)
        for name, (v, unit) in layers.items():
            print(f"  {name:30s} {v:16.4f} {unit}")
        chosen = {m["name"]: layers[m["name"]] for m in bench["per_layer"]}
        run.rec.write(os.path.join(STATE, "traces",
                                   f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    result = {"correct": correct, "attempted": run.attempted,
              "failed": len(run.failed_ops), "metrics": metrics}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({**result, "config": stamp, "host": host, "samples": counts,
                   "all_metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in e2e.items()},
                   "op_walls": run.rec.op_walls(),
                   "errors": run.errors}, f, indent=1)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
