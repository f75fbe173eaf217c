"""Multi-node readiness evidence for the object-store exchange primitives.

A single `ray.init(address="local")` box can't falsify the cross-node
assumptions in ``stages/exchange.py`` / the exchange joins (every object
lives in ONE shared local object store, so a task "fetching its shard's
slices" never crosses a node boundary). This script stands up a real
multi-raylet cluster on one machine — `ray start --head` + N worker
raylets, each with its OWN object store and CPU slice — and drives the
exchange-heavy pipelines across it:

- the headline CDC replay (fused per-shard apply tasks),
- ``join_bucketed`` (object-store exchange join),
- ``sessionize`` (exchange_group_map over user shards),
- ``cluster_duplicates_distributed`` (ref-passing label propagation),
- the crawl front door (``ingest.stage_drop``: WARC read + shard-write
  tasks scheduled across the raylets into one sealed epoch, then tail),
- follower replication (``cdc/replicate.py``: a full resync — snapshot
  upserts + anti-join tombstones — into a follower lake, digest-checked),
- the exchange block-count crossover (>4096 input blocks through
  ``exchange_group_map`` at the REAL default ``max_exchange_blocks``,
  exact-sum oracle — the unit test only forces the path with a tiny
  threshold).

Each query's result is checked against the same DuckDB oracle the driver
uses, so "ran across nodes" also means "still correct across nodes" —
slices produced on one raylet are consumed by finalize tasks scheduled on
another, exercising the inter-node object transfer path that local mode
skips. Results + timings land in stdout as one JSON line for BASELINE.md.

Usage:  python tools/multinode_sim.py [sf_dir] [n_workers] [cpus_per_node]
(defaults: /root/testdata/sf0.1, 2 workers + head, 8 cpus each).

`--scaling [n_events]` (default 12,000,000) instead runs the north-rule
two-parallelism criterion on the REAL cluster runtime: the identical
replay job on fresh single-raylet `ray start` clusters at 2 and 8 CPUs
(fresh driver process per leg, in-driver lake teardown + settle between
legs, best-of-2, legs alternating); reports both throughputs and
(T_2/T_8)/4. Single-raylet on purpose: co-located raylets share ONE
kernel/memory bus and measurably collapse on tmpfs-heavy jobs (the
artifact is quantified by the optional `--artifact` leg and documented
in BASELINE.md) — a real 4N-node cluster multiplies those resources.

`--chaos` kills a WORKER raylet mid-replay on a 3-raylet cluster, then
asserts (a) the replay's final lake still matches the DuckDB/vectorized
WAL oracle exactly, and (b) exchange-heavy queries (sessionize,
join_bucketed) still oracle-match on the degraded 2-raylet cluster —
the task-retry / lineage-reconstruction story for the exchange
primitives, which no single-raylet run can exercise.

Runs `ray stop --force` on exit — do not run concurrently with another Ray
session on this box.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DRIVER = r"""
import json, os, sys, time
import ray
import ray.data as rd

ray.init(address="127.0.0.1:6379", log_to_driver=False)
rd.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})

nodes = [n for n in ray.nodes() if n["Alive"]]
out = {{"nodes": len(nodes),
        "cpus": int(ray.cluster_resources().get("CPU", 0))}}

from go_tfdata_ray.pipelines import queries as Q
import duckdb
import pandas as pd

sf_dir = {sf_dir!r}
con = duckdb.connect()
for t in ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split():
    p = os.path.join(sf_dir, f"{{t}}.parquet")
    if os.path.exists(p):
        con.execute(f"CREATE VIEW {{t}} AS SELECT * FROM read_parquet('{{p}}')")

def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)

checks = {{}}
for name in ("join_bucketed", "sessionize", "dedup_clusters_planted"):
    walls = []
    for _ in range(2):  # first run absorbs worker warmup on every raylet
        t0 = time.perf_counter()
        res = Q.QUERIES[name](sf_dir)
        got = (res.to_pandas() if hasattr(res, "to_pandas")
               else pd.DataFrame(res))
        walls.append(time.perf_counter() - t0)
    want = con.execute(Q.ORACLE_SQL[name]).df()
    a, b = canon(got), canon(want)
    ok = a.shape == b.shape and bool(
        (a.values == b.values).all()) if a.shape == b.shape else False
    checks[name] = {{"cold_sec": round(walls[0], 3),
                     "warm_sec": round(walls[1], 3),
                     "rows": len(got), "match": bool(ok)}}

# headline replay across the cluster (fresh lake, sf-linked WAL)
from go_tfdata_ray.cdc.engine import CDCEngine
from go_tfdata_ray.sources import wal as walmod
wal_dir, files = walmod.ensure_wal_for_sf(sf_dir)
lake = "/tmp/graft_lake/multinode-sim"
import shutil
shutil.rmtree(lake, ignore_errors=True)
eng = CDCEngine(lake, num_partitions=16)
t0 = time.perf_counter()
stats = eng.apply_wal(wal_dir)
wall = time.perf_counter() - t0
n_events = sum(s.get("delta_rows", 0) for s in stats)
out["replay"] = {{"sec": round(wall, 3), "events": int(n_events),
                  "events_per_sec": round(n_events / wall, 1)}}
out["checks"] = checks

# reshard across the cluster: both stages run plain tasks of four
# partitions each (16 -> 24: 4 split tasks, then 6 merge tasks), which the
# scheduler may or may not spread over every raylet; the state digest must
# be identical under the new layout
import pandas as pd
def state_digest(e):
    df = e.scan_table(columns=["doc_id", "n_tok", "source"]).to_pandas()
    return pd.util.hash_pandas_object(
        df.sort_values("doc_id").reset_index(drop=True)).sum()
before = state_digest(eng)
t0 = time.perf_counter()
rs = eng.reshard(24)
rs_wall = time.perf_counter() - t0
after = state_digest(eng)
out["reshard"] = {{"sec": round(rs_wall, 3),
                   "rows": int(rs["rows"]),
                   "new_partitions": int(rs["num_partitions"]),
                   "match": bool(before == after)}}

# follower replication across the cluster: the reshard above just folded
# the source's feed, so this is a REAL distributed full resync (snapshot
# upserts + anti-join tombstones) with stage/apply tasks on every raylet;
# the follower's digest must equal the source's
from go_tfdata_ray.cdc.replicate import sync_replica
rep = lake + "-replica"
shutil.rmtree(rep, ignore_errors=True)
t0 = time.perf_counter()
r = sync_replica(lake, rep, num_partitions=8)
rep_wall = time.perf_counter() - t0
rep_digest = state_digest(CDCEngine(rep))
out["replicate"] = {{"sec": round(rep_wall, 3), "mode": r["mode"],
                     "rows": int(r["rows_staged"]),
                     "match": bool(rep_digest == after)}}
shutil.rmtree(rep, ignore_errors=True)
shutil.rmtree(lake, ignore_errors=True)  # don't leave the lake pinned

# crawl-ingest across the cluster: WARC drop -> one sealed epoch (shard
# writers scheduled on every raylet, same shared-wal_dir contract a real
# cluster has via shared storage) -> tail -> count oracle
import pyarrow as pa
from go_tfdata_ray.cdc import ingest as ingmod
from go_tfdata_ray.sources import warc as warcmod

root = "/tmp/graft_lake/multinode-ingest"
shutil.rmtree(root, ignore_errors=True)
os.makedirs(root)
paths = []
for f in range(8):
    recs = [{{"warc_type": "response", "uri": f"https://mn/{{i}}",
              "date": "2026-06-01T00:00:00Z",
              "payload": (b"HTTP/1.1 200 OK\r\n\r\n"
                          + f"mn doc {{i}} body words".encode())}}
            for i in range(f * 625, (f + 1) * 625)]
    p = os.path.join(root, f"d{{f}}.warc.gz")
    warcmod.write_warc(p, recs)
    paths.append(p)

def add_text(t):
    return t.append_column("text", pa.array(
        [bytes(x).decode() for x in t["payload"].to_pylist()], pa.string()))

docs = warcmod.read_warc(paths).map_batches(add_text, batch_format="pyarrow")
t0 = time.perf_counter()
r = ingmod.stage_drop(docs, os.path.join(root, "wal"))
ieng = CDCEngine(os.path.join(root, "lake"), num_partitions=8)
ieng.tail(os.path.join(root, "wal"), idle_limit=1, poll_secs=0.01)
iwall = time.perf_counter() - t0
n_live = ieng.scan_table(columns=["doc_id"]).num_rows
out["ingest"] = {{"docs": int(r["rows"]), "shards": int(r["shards"]),
                  "lake_rows": int(n_live), "sec": round(iwall, 3),
                  "match": bool(n_live == 5000 and r["rows"] == 5000)}}
shutil.rmtree(root, ignore_errors=True)

# exchange block-count crossover across the cluster: >4096 input blocks
# pushes exchange_group_map past its REAL default max_exchange_blocks, so
# the coalescing repartition + exchange run at the production threshold
# with route/finalize tasks on every raylet (the unit test only forces the
# path with max_exchange_blocks=2); exact per-key sums as the oracle
import numpy as np
from go_tfdata_ray.stages.exchange import exchange_group_map

rng = np.random.default_rng(7)
want_tot = np.zeros(64, dtype=np.int64)
xrefs = []
for _b in range(4500):
    k = rng.integers(0, 64, 40).astype(np.int64)
    v = rng.integers(0, 100, 40).astype(np.int64)
    np.add.at(want_tot, k, v)
    xrefs.append(ray.put(pa.table({{"k": k, "v": v, "_shard": k % 16}})))

def _xagg(t):
    return t.group_by("k").aggregate([("v", "sum")]).rename_columns(["k", "v"])

t0 = time.perf_counter()
xout = exchange_group_map(rd.from_arrow_refs(xrefs), _xagg, num_shards=16,
                          batch_format="pyarrow").to_pandas()
xwall = time.perf_counter() - t0
got_tot = np.zeros(64, dtype=np.int64)
got_tot[xout["k"].to_numpy()] = xout["v"].to_numpy()
out["exchange_crossover"] = {{"blocks": 4500, "sec": round(xwall, 3),
                              "rows": int(len(xout)),
                              "match": bool((got_tot == want_tot).all())}}
del xrefs

# span dedup across the cluster: the count exchange, Bloom-verify and
# rewrite-upsert/tombstone tasks land on every raylet; closed-form
# planted oracle — full copies (+100000, every 40th) empty and tombstone,
# partials (+200000, every 80th: 3-token prefix + 20-token run of the
# original + 3-token suffix, pre/suffix shorter than span_k=8) keep only
# prefix+suffix, originals untouched
sl = "/tmp/graft_lake/multinode-span"
shutil.rmtree(sl, ignore_errors=True)
seng = CDCEngine(sl, num_partitions=8)
sids, stoks = [], []
exp = {{}}
# doc_ids are STRINGS; winner = min (key, pos) under the key's native
# (lexicographic) order, so zero-pad to make it match numeric order
for i in range(1, 2001):
    w = [i * 100 + j for j in range(40)]
    sids.append(f"{{i:09d}}"); stoks.append(w); exp[f"{{i:09d}}"] = w
    if i % 40 == 0:
        sids.append(f"{{i + 100000:09d}}"); stoks.append(list(w))  # emptied
    if i % 80 == 0:
        pr, su = [i, -1, -2], [-3, -4, -5]
        sids.append(f"{{i + 200000:09d}}"); stoks.append(pr + w[5:25] + su)
        exp[f"{{i + 200000:09d}}"] = pr + su
seng.upsert(pa.table({{
    "doc_id": pa.array(sids),
    "tokens": pa.array(stoks, pa.list_(pa.int32())),
    "source": pa.array(["s"] * len(sids))}}))
t0 = time.perf_counter()
sr = seng.dedup_lake(method="span", span_k=8, num_shards=16)
swall = time.perf_counter() - t0
got = {{r["doc_id"]: list(r["tokens"])
        for b in seng.scan(columns=["doc_id", "tokens"]).iter_batches(
            batch_format="pyarrow")
        for r in b.to_pylist()}}
out["span_dedup"] = {{"sec": round(swall, 3),
                      "spans": int(sr["spans"]),
                      "rewritten": int(sr["rewritten"]),
                      "emptied": int(sr["emptied"]),
                      "match": bool(got == exp)}}
shutil.rmtree(sl, ignore_errors=True)

ray.shutdown()
print("MULTINODE_RESULT " + json.dumps(out))
"""


REPLAY_DRIVER = r"""
import json, shutil, sys, time
import ray

ray.init(address="127.0.0.1:6379", log_to_driver=False)
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})

from go_tfdata_ray.cdc.engine import CDCEngine

# warm the worker pool on every raylet (untimed): bill the legs for engine
# throughput, not cold-start package imports
def _warm(b):
    import pandas  # noqa: F401
    import go_tfdata_ray.cdc.engine  # noqa: F401
    return b

ncpu = int(ray.cluster_resources().get("CPU", 0))
rd.range(ncpu * 4, override_num_blocks=ncpu * 4).map_batches(
    _warm, batch_size=None).count()

lake = {lake!r}
shutil.rmtree(lake, ignore_errors=True)
eng = CDCEngine(lake, num_partitions={partitions})
t0 = time.perf_counter()
stats = eng.apply_wal({wal_dir!r})
wall = time.perf_counter() - t0
n = sum(s.get("delta_rows", 0) for s in stats)
# tear the lake down HERE, inside the measured leg's process, so the
# parent's inter-leg settle window absorbs the teardown's kcompactd
# churn before the next measurement starts
shutil.rmtree(lake, ignore_errors=True)
ray.shutdown()
print("REPLAY_RESULT " + json.dumps(
    {{"cpus": ncpu, "sec": round(wall, 3), "events": int(n),
      "events_per_sec": round(n / wall, 1)}}))
"""


CHAOS_DRIVER = r"""
import json, os, shutil, sys, time
import ray

ray.init(address="127.0.0.1:6379", log_to_driver=False)
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, {repo!r})

import duckdb
import pandas as pd
from go_tfdata_ray.cdc.engine import CDCEngine
from go_tfdata_ray.cdc.oracle import assert_tables_equal, oracle_final_state
from go_tfdata_ray.pipelines import queries as Q
from go_tfdata_ray.sources import wal as walmod

def _warm(b):
    import pandas  # noqa: F401
    import go_tfdata_ray.cdc.engine  # noqa: F401
    return b

ncpu = int(ray.cluster_resources().get("CPU", 0))
rd.range(ncpu * 4, override_num_blocks=ncpu * 4).map_batches(
    _warm, batch_size=None).count()

out = {{"nodes_before": len([n for n in ray.nodes() if n["Alive"]])}}

# Tell the parent which raylet is OURS so it never SIGKILLs the driver's
# local raylet: with several same-IP raylets on one box, ray.init attaches
# the driver to an arbitrary (in practice the most recently registered)
# node — which is exactly the worker the parent would otherwise pick.
_me = ray.get_runtime_context().get_node_id()
_sock = next(n["RayletSocketName"] for n in ray.nodes()
             if n["NodeID"] == _me)
# signal the parent: the kill lands ~1.5 s from now, mid-apply
# (write-then-rename so the parent never reads a half-written marker)
open({marker!r} + ".tmp", "w").write(
    json.dumps({{"driver_raylet_socket": _sock}}))
os.rename({marker!r} + ".tmp", {marker!r})
wal_files = [p for _e, paths in walmod.list_segments({wal_dir!r})
             for p in paths]
lake = "/dev/shm/graft_chaos_lake"
shutil.rmtree(lake, ignore_errors=True)
eng = CDCEngine(lake, num_partitions=24)
t0 = time.perf_counter()
eng.apply_wal({wal_dir!r})
out["replay_sec_with_kill"] = round(time.perf_counter() - t0, 2)

# exactly-once + retry correctness: merged lake == WAL oracle, exactly
assert_tables_equal(eng.scan_table(), oracle_final_state(wal_files))
out["replay_matches_oracle"] = True
# GCS death detection can lag the SIGKILL; wait for it rather than sample
deadline = time.time() + 60
while time.time() < deadline:
    alive = len([n for n in ray.nodes() if n["Alive"]])
    if alive == 2:
        break
    time.sleep(1)
out["nodes_after"] = alive

# degraded-cluster queries still oracle-match
sf_dir = {sf_dir!r}
con = duckdb.connect()
for t in ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split():
    p = os.path.join(sf_dir, f"{{t}}.parquet")
    if os.path.exists(p):
        con.execute(f"CREATE VIEW {{t}} AS SELECT * FROM read_parquet('{{p}}')")

def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)

checks = {{}}
for name in ("sessionize", "join_bucketed"):
    res = Q.QUERIES[name](sf_dir)
    got = (res.to_pandas() if hasattr(res, "to_pandas")
           else pd.DataFrame(res))
    want = con.execute(Q.ORACLE_SQL[name]).df()
    a, b = canon(got), canon(want)
    checks[name] = bool(a.shape == b.shape and (a.values == b.values).all())
out["degraded_checks"] = checks
shutil.rmtree(lake, ignore_errors=True)
ray.shutdown()
print("CHAOS_RESULT " + json.dumps(out))
"""


def run_chaos(n_events: int, sf_dir: str) -> int:
    """SIGKILL a worker raylet mid-replay; everything must stay correct."""
    import signal

    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = REPO

    def run(cmd, **kw):
        return subprocess.run(cmd, shell=True, env=env, check=True, **kw)

    def raylet_pids() -> set[int]:
        # bracket trick so the invoking shell's own cmdline never matches
        r = subprocess.run("pgrep -f 'raylet/rayle[t] '", shell=True,
                           capture_output=True, text=True)
        return {int(p) for p in r.stdout.split()}

    wal_dir = f"/dev/shm/graft_chaos_wal/{n_events}"
    gen = (
        "import ray, sys; sys.path.insert(0, {repo!r}); "
        "ray.init(address='local', num_cpus=16, include_dashboard=False, "
        "logging_level='ERROR'); "
        "from go_tfdata_ray.sources import wal as walmod; "
        "p = walmod.WalParams(n_events={ne}, n_keys={ne}//4, num_epochs=2, "
        "max_len=256, op_mode='hash', shard_rows=16384); "
        "walmod.generate_wal_parallel({wal!r}, p); ray.shutdown()"
    ).format(repo=REPO, ne=n_events, wal=wal_dir)
    subprocess.run([sys.executable, "-c", gen], env=env, check=True)

    marker = f"/tmp/graft_chaos_marker.{os.getpid()}"
    if os.path.exists(marker):
        os.unlink(marker)
    try:
        run("ray stop --force >/dev/null 2>&1 || true")
        time.sleep(5)
        run(f"ray start --head --port=6379 --num-cpus=8 "
            f"--object-store-memory={4 * 10**9} --disable-usage-stats "
            ">/dev/null")
        deadline = time.time() + 30  # raylet spawn is async after ray start
        while not raylet_pids() and time.time() < deadline:
            time.sleep(0.3)
        head_pids = raylet_pids()
        assert len(head_pids) == 1, head_pids
        for _ in range(2):
            run(f"ray start --address=127.0.0.1:6379 --num-cpus=8 "
                f"--object-store-memory={4 * 10**9} --disable-usage-stats "
                ">/dev/null")
        deadline = time.time() + 30
        while len(raylet_pids() - head_pids) < 2 and time.time() < deadline:
            time.sleep(0.3)
        worker_pids = sorted(raylet_pids() - head_pids)
        assert len(worker_pids) == 2, worker_pids

        def raylet_socket(pid: int) -> str:
            # raylets are exec'd with --raylet_socket_name=<path>, unique
            # per raylet (--node_manager_port is 0 when Ray picks the port)
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                args = f.read().split(b"\0")
            for a in args:
                if a.startswith(b"--raylet_socket_name="):
                    return a.split(b"=", 1)[1].decode()
            return ""

        worker_socks = {raylet_socket(p): p for p in worker_pids}
        assert len(worker_socks) == 2, worker_socks
        time.sleep(3)
        script = CHAOS_DRIVER.format(repo=REPO, wal_dir=wal_dir,
                                     sf_dir=sf_dir, marker=marker)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        deadline = time.time() + 120
        while not os.path.exists(marker) and time.time() < deadline:
            time.sleep(0.1)
        if not os.path.exists(marker):
            proc.kill()
            sys.stderr.write("driver never reached the marker\n")
            return 1
        # pick a WORKER raylet that is NOT the driver's local raylet (the
        # driver attaches to an arbitrary same-IP raylet — killing its own
        # raylet would test driver death, which tools/soak.py already covers)
        driver_sock = json.load(open(marker)).get("driver_raylet_socket")
        victims = [p for sock, p in sorted(worker_socks.items())
                   if sock != driver_sock]
        assert victims, (worker_socks, driver_sock)
        time.sleep(1.5)  # let the apply get airborne
        os.kill(victims[-1], signal.SIGKILL)
        kill_t = time.time()
        stdout, stderr = proc.communicate(timeout=600)
        for line in stdout.splitlines():
            if line.startswith("CHAOS_RESULT "):
                data = json.loads(line.split(" ", 1)[1])
                data["killed_raylet_pid"] = victims[-1]
                print("CHAOS_RESULT " + json.dumps(data))
                ok = (data.get("replay_matches_oracle")
                      and data.get("nodes_after") == 2
                      and all(data.get("degraded_checks", {}).values()))
                return 0 if ok else 1
        sys.stderr.write(stdout[-3000:] + "\n" + stderr[-3000:] + "\n")
        return 1
    finally:
        run("ray stop --force >/dev/null 2>&1 || true")
        if os.path.exists(marker):
            os.unlink(marker)
        import shutil as _sh
        _sh.rmtree(wal_dir, ignore_errors=True)
        _sh.rmtree("/dev/shm/graft_chaos_lake", ignore_errors=True)


def run_scaling(n_events: int) -> int:
    """The identical replay job at N and 4N CPUs on the REAL cluster
    runtime (``ray start`` raylets, fresh cluster + fresh driver process
    per leg), plus a 4-co-located-raylets leg reported for transparency.

    The primary pair is cpu2 vs cpu8, both SINGLE-raylet (same pair and
    rationale as bench.py --scaling: past ~8-way this one box saturates
    its single memory bus). Why single-raylet: co-located raylets do not
    add kernels, memory buses or object stores the way real nodes do —
    measured here (12M events): 1 raylet x 32 cpus ~6.4 s vs 4 raylets x
    8 cpus 18-52 s with the loss showing up as 8x sys-vs-user time INSIDE
    the fused read tasks (tmpfs/plasma mmap contention between 4 plasma
    stores sharing one kernel). That is a single-box simulation artifact,
    not engine dataflow: the apply path is one fused task per WAL shard
    with no all-to-all, and the 3-raylet correctness run in this file's
    default mode shows healthy per-CPU throughput across real raylet
    boundaries at sf0.1. The colocated4x8 leg is kept to quantify the
    artifact per run."""
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = REPO

    def run(cmd, **kw):
        return subprocess.run(cmd, shell=True, env=env, check=True, **kw)

    # generate the WAL once with a throwaway local session (same params as
    # bench.py --scaling so the numbers are comparable)
    wal_dir = f"/dev/shm/graft_scaling_wal/{n_events}-256-2-32768"
    gen = (
        "import ray, sys; sys.path.insert(0, {repo!r}); "
        "ray.init(address='local', num_cpus=16, include_dashboard=False, "
        "logging_level='ERROR'); "
        "from go_tfdata_ray.sources import wal as walmod; "
        "p = walmod.WalParams(n_events={ne}, n_keys={ne}//4, num_epochs=2, "
        "max_len=256, op_mode='hash', shard_rows=32768); "
        "walmod.generate_wal_parallel({wal!r}, p); ray.shutdown()"
    ).format(repo=REPO, ne=n_events, wal=wal_dir)
    subprocess.run([sys.executable, "-c", gen], env=env, check=True)
    # settle after the multi-GB tmpfs write: kcompactd churn from fresh
    # tmpfs pages measurably taxes the next minutes of memory traffic on
    # this box (BASELINE.md "Noise control") — and it lands on BOTH legs
    # here, flattening the very scaling ratio being measured
    time.sleep(90)

    # N -> 4N on the cluster runtime. The pair is 2->8 for the same reason
    # bench.py's is (BASELINE.md): past ~8-way this one box saturates its
    # single memory bus, which a real 4N-node cluster multiplies with the
    # nodes. 8/32 single-raylet figures measured separately: 12.3 s /
    # 6.4 s (=0.48, the documented bus ceiling, matching in-process
    # 0.56-0.58). The colocated4x8 artifact leg joins only with --artifact.
    leg_specs = [("cpu2", 2, 0), ("cpu8", 8, 0)]
    if "--artifact" in sys.argv:
        leg_specs.append(("colocated4x8", 8, 3))
    legs = {}
    try:
        # best-of-2 whole clusters, legs ALTERNATING inside each attempt so
        # residual kernel churn can't systematically tax one leg; each leg
        # tears its own lake down in-process and the parent then sleeps
        # 75 s, so teardown/kcompactd churn decays before the next
        # measurement (back-to-back multi-GB legs measured 1.5-2x noise)
        for _attempt in range(2):
            for name, head_cpus, n_workers in leg_specs:
                run("ray stop --force >/dev/null 2>&1 || true")
                time.sleep(75)
                load1m = os.getloadavg()[0]
                run(f"ray start --head --port=6379 --num-cpus={head_cpus} "
                    f"--object-store-memory={8 * 10**9} "
                    f"--disable-usage-stats >/dev/null")
                for _ in range(n_workers):
                    run(f"ray start --address=127.0.0.1:6379 --num-cpus=8 "
                        f"--object-store-memory={8 * 10**9} "
                        f"--disable-usage-stats >/dev/null")
                time.sleep(3)
                script = REPLAY_DRIVER.format(
                    repo=REPO, wal_dir=wal_dir,
                    lake=f"/dev/shm/graft_multinode_lake/{name}-a{_attempt}",
                    partitions=32)
                p = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   timeout=1800)
                res = None
                for line in p.stdout.splitlines():
                    if line.startswith("REPLAY_RESULT "):
                        res = json.loads(line.split(" ", 1)[1])
                if res is None:
                    sys.stderr.write(p.stdout[-3000:] + "\n" +
                                     p.stderr[-3000:] + "\n")
                    return 1
                res["input_events"] = n_events
                res["input_events_per_sec"] = round(n_events / res["sec"], 1)
                res["nodes"] = n_workers + 1
                res["load1m_at_start"] = round(load1m, 2)
                if name not in legs or res["sec"] < legs[name]["sec"]:
                    legs[name] = res
    finally:
        run("ray stop --force >/dev/null 2>&1 || true")
        import shutil as _sh
        _sh.rmtree("/dev/shm/graft_multinode_lake", ignore_errors=True)
        _sh.rmtree(wal_dir, ignore_errors=True)  # don't feed kcompactd

    out = {"events": n_events, "legs": legs,
           "scaling_efficiency_n_to_4n_cpus_cluster_runtime":
               round((legs["cpu2"]["sec"] / legs["cpu8"]["sec"]) / 4, 3)}
    if "colocated4x8" in legs:
        out["colocation_artifact_ratio_cpu8_vs_4x8"] = round(
            legs["cpu8"]["sec"] / legs["colocated4x8"]["sec"], 3)
    print("MULTINODE_SCALING " + json.dumps(out))
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--scaling":
        nums = [a for a in sys.argv[2:] if a.isdigit()]
        return run_scaling(int(nums[0]) if nums else 12_000_000)
    if len(sys.argv) > 1 and sys.argv[1] == "--chaos":
        nums = [a for a in sys.argv[2:] if a.isdigit()]
        sfs = [a for a in sys.argv[2:] if os.path.isdir(a)]
        return run_chaos(int(nums[0]) if nums else 3_000_000,
                         sfs[0] if sfs else "/root/testdata/sf0.1")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"
    n_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    cpus = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # force the explicit cluster address
    env["PYTHONPATH"] = REPO

    def run(cmd, **kw):
        return subprocess.run(cmd, shell=True, env=env, check=True, **kw)

    run("ray stop --force >/dev/null 2>&1 || true")
    try:
        run(f"ray start --head --port=6379 --num-cpus={cpus} "
            f"--object-store-memory={2 * 10**9} --disable-usage-stats "
            ">/dev/null")
        for _ in range(n_workers):
            run(f"ray start --address=127.0.0.1:6379 --num-cpus={cpus} "
                f"--object-store-memory={2 * 10**9} --disable-usage-stats "
                ">/dev/null")
        time.sleep(3)
        script = DRIVER.format(repo=REPO, sf_dir=sf_dir)
        p = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=900)
        for line in p.stdout.splitlines():
            if line.startswith("MULTINODE_RESULT "):
                print(line)
                data = json.loads(line.split(" ", 1)[1])
                ok = (all(c["match"] for c in data["checks"].values())
                      and data.get("ingest", {}).get("match", False)
                      and data.get("reshard", {}).get("match", False)
                      and data.get("span_dedup", {}).get("match", False))
                return 0 if ok and data["nodes"] == n_workers + 1 else 1
        sys.stderr.write(p.stdout[-4000:] + "\n" + p.stderr[-4000:] + "\n")
        return 1
    finally:
        run("ray stop --force >/dev/null 2>&1 || true")


if __name__ == "__main__":
    raise SystemExit(main())
