"""Crawl-drop → WAL ingest adapter: the first mile of the lake.

``sources/warc.py`` / ``sources/jsonl.py`` read raw crawl drops;
``cdc/engine.py`` applies WAL segments exactly-once. This module is the
producer in between: it normalizes a document Dataset to the WAL event
schema (`sources/wal.py:WAL_SCHEMA`) and writes it as ONE sealed epoch
segment under ``wal_dir`` — after which the standard
``CDCEngine.tail(wal_dir, auto_dedup=...)`` path owns it (idempotent
replay filter, dedup-on-ingest, incremental views, compaction).

The end-to-end story this enables::

    docs = warc.read_warc(drop_files)          # crawl shard
    docs = docs.map_batches(decode_text, ...)  # payload → text
    ingest.stage_drop(docs, wal_dir)           # one sealed WAL epoch
    engine.tail(wal_dir, auto_dedup=2)         # exactly-once apply

Scale shape: every block writes its own shard file straight into the
open segment directory — no all-to-all, no driver materialization;
shard names are content-addressed (sha1 of the block's doc_ids+seqs) so
task retries overwrite the same file with the same bytes; only tiny
``(path, rows)`` intent rows return to the driver, which then SEALS the
segment — the completeness barrier that makes the whole drop visible to
``tail`` atomically (``sources/wal.py:seal_segment``). The shards are
the WAL itself, a producer's durable output; the engine's synthesized
epochs (``CDCEngine._apply_synth``) write no such shards.

Event identity: ``doc_id`` is the stable 64-bit siphash of the URI
(LWW per page across drops); ``seq`` packs ``(epoch << 40) |
(fetch-seconds << 8) | text-hash-low-bits`` — monotonic across drops
(later epochs always win the replay filter), ordered by fetch time
within a drop, and deterministically tie-broken by content when one
URI is fetched twice in the same second.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.text import Tokenizer, _worker_cached
from ..sources import wal as walmod
from .expect import apply_expectations, write_quarantine_shard

_SEC_BITS = 32  # fetch-time seconds (good through 2106)
_TIE_BITS = 8


from urllib.parse import urlsplit, urlunsplit


def canonicalize_uri(uri: str) -> str:
    """Conservative URL canonicalization for crawl identity: lowercase
    scheme+host, strip default ports (:80 http / :443 https), drop the
    fragment, normalize an EMPTY path with authority to '/' (RFC 3986
    §6.2.3 — 'https://x.com' == 'https://x.com/'), strip one trailing
    slash off non-root paths. Query strings are kept verbatim (reordering
    parameters changes semantics on enough real sites to be unsafe).
    Idempotent, IPv6-bracket-preserving; anything that won't parse —
    including junk ports like ':99999' or ':8a' — passes through
    unchanged (crawl drops contain such URLs, and a best-effort key
    beats killing the ingest task)."""
    try:
        s = urlsplit(uri)
        port = s.port  # .port itself raises on junk/out-of-range ports
    except ValueError:
        return uri
    if not s.scheme or not s.netloc:
        return uri
    host = s.hostname.lower() if s.hostname else ""
    if ":" in host:  # bare IPv6 from .hostname — restore the brackets
        host = f"[{host}]"
    scheme = s.scheme.lower()
    if port and not ((scheme == "http" and port == 80)
                     or (scheme == "https" and port == 443)):
        host = f"{host}:{port}"
    userinfo = s.netloc.rsplit("@", 1)[0] + "@" if "@" in s.netloc else ""
    path = s.path or "/"
    if path.endswith("/") and len(path) > 1:
        path = path[:-1]
    return urlunsplit((scheme, userinfo + host, path, s.query, ""))


def doc_id_for_uri(uris) -> pa.Array:
    """Stable lake key per URI: fixed-key siphash (process-stable, like
    `cdc/collapse.py:hash_partition`), hex-encoded with a ``w:`` prefix."""
    arr = np.asarray(list(uris) if not isinstance(uris, np.ndarray) else uris,
                     dtype=object)
    h = pd.util.hash_array(arr, categorize=False)
    return pa.array([f"w:{v:016x}" for v in h], pa.string())


def _next_epoch(wal_dir: str) -> int:
    """Highest existing segment id (sealed, open, legacy file, OR a
    vacuum tombstone — a reaped id must never be reused: the reaped
    producer's late shard renames would land in the new claimant's
    segment) + 1."""
    import re

    if not os.path.isdir(wal_dir):
        return 0
    mx = -1
    for name in os.listdir(wal_dir):
        m = re.fullmatch(r"epoch-(\d+)(?:\.parquet|\.vacuumed)?", name)
        if m:
            mx = max(mx, int(m.group(1)))
    return mx + 1


def _claim_epoch(wal_dir: str) -> tuple[int, str]:
    """Atomically claim the next FREE epoch id for this producer.

    ``open_segment`` deliberately merges a same-id race into one directory
    (one logical producer resuming); two INDEPENDENT drops must not share a
    segment — the first to seal would publish the other's half-written
    shards. Claim = rename of a pre-populated temp dir (marker already
    inside, same atomicity argument as `sources/wal.py:open_segment`): the
    loser's rename fails on the non-empty winner directory and retries with
    the next id. Legacy single-file segments (``epoch-N.parquet``) are
    skipped by the id scan."""
    import shutil

    os.makedirs(wal_dir, exist_ok=True)
    e = _next_epoch(wal_dir)
    while True:
        d = os.path.join(wal_dir, f"epoch-{e:05d}")
        tmp = f"{d}.claiming-{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, walmod.OPEN_MARKER), "w"):
            pass
        try:
            if not os.path.exists(d):
                os.rename(tmp, d)
                return e, d
        except OSError:
            pass  # lost the race (ENOTEMPTY/EEXIST): try the next id
        shutil.rmtree(tmp, ignore_errors=True)
        e += 1


def _fetch_seconds(dates: pa.Array | None, n: int) -> np.ndarray:
    if dates is None:
        return np.zeros(n, dtype=np.int64)
    ts = pd.to_datetime(dates.to_pylist(), utc=True, errors="coerce")
    sec = ts.astype("int64", copy=False) // 1_000_000_000
    return np.where(ts.isna(), 0, sec).astype(np.int64)


class _DropNormalizer:
    """Per-worker stage: tokenize + key + seq-stamp one block of documents
    into WAL event rows, then write the block as one content-addressed
    shard file inside the open segment. Tokenizer state (the pretokenizer
    regex) builds once per worker process."""

    def __init__(self, seg_dir: str, epoch: int, uri_col: str, text_col: str,
                 date_col: str | None, source: str, vocab: int,
                 keep_uri: bool, canonicalize: bool = False,
                 expectations_blob: bytes | None = None):
        self.seg_dir, self.epoch = seg_dir, epoch
        self.uri_col, self.text_col, self.date_col = uri_col, text_col, date_col
        self.source, self.keep_uri = source, keep_uri
        self.canonicalize = canonicalize
        # expectations travel as a cloudpickle blob: the worker-cache key is
        # (qualname, args) and rule objects (closures) aren't value-hashable
        if expectations_blob:
            from ray import cloudpickle

            self.expectations = cloudpickle.loads(expectations_blob)
        else:
            self.expectations = []
        self.tok = Tokenizer(text_col=text_col, key_col=uri_col, vocab=vocab)

    @staticmethod
    def _empty_intent() -> pa.Table:
        return pa.table({"path": pa.array([], pa.string()),
                         "rows": pa.array([], pa.int64()),
                         "violations": pa.array([], pa.string())})

    def __call__(self, t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return self._empty_intent()
        vio_json = "{}"
        if self.expectations:
            # quality gate BEFORE keying/tokenizing: violating rows divert
            # to the quarantine sidecar (or raise on a fail-policy rule,
            # aborting the drop pre-seal); only per-rule COUNTS travel back
            t, quar, counts = apply_expectations(t, self.expectations)
            if quar is not None and len(quar):
                write_quarantine_shard(quar, self.seg_dir)
            vio_json = json.dumps(counts)
            if len(t) == 0:  # whole block quarantined: counts still count
                return pa.table({"path": pa.array([""], pa.string()),
                                 "rows": pa.array([0], pa.int64()),
                                 "violations": pa.array([vio_json], pa.string())})
        n = len(t)
        uris = pc.cast(t[self.uri_col], pa.string())
        uri_list = uris.to_pylist()
        if self.canonicalize:
            # crawl identity: the same page under scheme/host-case, default
            # port, fragment or trailing-slash variants collapses to ONE
            # doc_id (LWW across refetches); the stored uri is canonical
            uri_list = [canonicalize_uri(u) for u in uri_list]
            uris = pa.array(uri_list, pa.string())
        texts = pc.cast(t[self.text_col], pa.string())
        toks = self.tok(pa.table({self.uri_col: uris, self.text_col: texts}))
        sec = _fetch_seconds(
            t[self.date_col] if self.date_col and self.date_col in t.column_names
            else None, n)
        sec &= (1 << _SEC_BITS) - 1
        tie = (pd.util.hash_array(
            np.asarray(texts.to_pylist(), dtype=object), categorize=False)
            & np.uint64((1 << _TIE_BITS) - 1)).astype(np.int64)
        seq = (np.int64(self.epoch) << 40) | (sec << _TIE_BITS) | tie
        ids = doc_id_for_uri(uri_list)
        cols = {
            "seq": pa.array(seq),
            "epoch": pa.array(np.full(n, self.epoch, dtype=np.int32)),
            "op": pa.array(["U"] * n, pa.string()),
            "doc_id": ids,
            "tokens": toks["tokens"],
            "n_tok": toks["n_tok"],
            "source": pa.array([self.source] * n, pa.string()),
        }
        if self.keep_uri:
            # lands in the delta fragments; to read it back, declare `uri`
            # in the engine's SchemaPolicy target and pass it in
            # scan(columns=[...]) — add-column evolution nulls it on
            # fragments that predate the declaration
            cols["uri"] = uris
        staged = pa.table(cols)
        intent = _write_shard(staged, self.seg_dir, "doc")
        intent["violations"] = pa.array([vio_json], pa.string())
        return pa.table(intent)


def _write_shard(staged: pa.Table, seg_dir: str, prefix: str) -> dict:
    name = hashlib.sha1(
        ("\x00".join(sorted(staged["doc_id"].to_pylist()))
         + f"|{int(pc.min(staged['seq']).as_py())}").encode()
    ).hexdigest()[:20]
    final = os.path.join(seg_dir, f"shard-{prefix}-{name}.parquet")
    tmp = final + f".tmp-{os.getpid()}"
    pq.write_table(staged, tmp, row_group_size=8192, compression="lz4")
    os.rename(tmp, final)
    # liveness heartbeat: a long-running stage keeps its claim fresh so
    # vacuum_stale_claims never reaps a producer that is actually making
    # progress (the marker's mtime IS the staleness signal). A vacuumed
    # claim makes this utime — and the rename above — fail loudly instead
    # of silently staging into a reused id.
    os.utime(os.path.join(seg_dir, walmod.OPEN_MARKER), None)
    return {"path": pa.array([final], pa.string()),
            "rows": pa.array([len(staged)], pa.int64())}


def stage_drop(
    ds: rd.Dataset,
    wal_dir: str,
    *,
    epoch: int | None = None,
    uri_col: str = "uri",
    text_col: str = "text",
    date_col: str | None = "date",
    source: str = "web",
    vocab: int = 50257,
    keep_uri: bool = True,
    canonicalize: bool = False,
    expectations: list | None = None,
) -> dict[str, Any]:
    """Write one document Dataset as one sealed WAL epoch segment.
    ``canonicalize=True`` routes URIs through ``canonicalize_uri`` before
    keying, so cosmetic URL variants of one page share a lake identity.
    ``expectations`` (a list of `cdc/expect.py:Expectation`) gates rows
    BEFORE they become events: violating rows quarantine / warn / abort
    per rule policy; the result gains ``quarantined`` + per-rule
    ``violations`` counts. A fail-policy abort (or any staging error) on
    a freshly claimed epoch abandons the claim with a vacuum tombstone,
    so a dead drop never blocks the consumers' ordering barrier.

    With ``epoch=None`` (the normal path) the id is CLAIMED atomically —
    concurrent producers land on distinct segments. An explicit ``epoch``
    re-opens that segment (the retrying-producer path: content-addressed
    shards make the re-stage byte-idempotent). Returns
    ``{"epoch", "rows", "shards", "seg_dir"}``."""
    claimed = epoch is None
    if claimed:
        e, seg_dir = _claim_epoch(wal_dir)
    else:
        e = int(epoch)
        seg_dir = walmod.open_segment(wal_dir, e)
    exp_blob = None
    if expectations:
        from ray import cloudpickle

        exp_blob = cloudpickle.dumps(list(expectations))
    try:
        intents = ds.map_batches(
            _worker_cached(_DropNormalizer, seg_dir, e, uri_col, text_col,
                           date_col, source, vocab, keep_uri, canonicalize,
                           exp_blob),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        ).take_all()  # tiny (path, rows, violation-counts) rows only
    except Exception:
        if claimed:
            _abandon_claim(seg_dir)
        raise
    by_path = {r["path"]: int(r["rows"]) for r in intents if r["path"]}
    out = {"epoch": e, "rows": sum(by_path.values()),
           "shards": len(by_path), "seg_dir": seg_dir}
    if expectations:
        from .expect import merge_violation_counts

        vio: dict[str, int] = {}
        for r in intents:
            merge_violation_counts(vio, r.get("violations"))
        quar_rules = {x.name for x in expectations
                      if x.on_fail == "quarantine"}
        out["violations"] = vio
        out["quarantined"] = sum(v for k, v in vio.items() if k in quar_rules)
    walmod.seal_segment(seg_dir)
    return out


def _abandon_claim(seg_dir: str) -> None:
    """Tear down a claimed-but-unsealed segment after a failed stage: same
    rename→tombstone→rmtree dance as ``vacuum_stale_claims`` (the id is
    pinned against reuse; a sealed segment is restored untouched). The
    epoch's quarantine shards live inside the directory and die with it —
    a straggler task's write into the renamed-away path fails loudly, so
    no ghost quarantine rows can outlive the abandonment."""
    import shutil

    reaped = f"{seg_dir}.abandoning-{os.getpid()}"
    try:
        os.rename(seg_dir, reaped)
    except OSError:
        return  # already gone (racing vacuum)
    if not os.path.exists(os.path.join(reaped, walmod.OPEN_MARKER)):
        os.rename(reaped, seg_dir)  # sealed under us: complete, keep it
        return
    with open(f"{seg_dir}.vacuumed.tmp-{os.getpid()}", "w"):
        pass
    os.rename(f"{seg_dir}.vacuumed.tmp-{os.getpid()}", f"{seg_dir}.vacuumed")
    shutil.rmtree(reaped, ignore_errors=True)


def stage_tombstones(
    uris: rd.Dataset | list[str],
    wal_dir: str,
    *,
    epoch: int | None = None,
    uri_col: str = "uri",
    canonicalize: bool = False,
) -> dict[str, Any]:
    """Write a takedown/robots-removal list as one sealed DELETE epoch:
    op='D' rows keyed like ``stage_drop`` (so they tombstone the same
    ``doc_id`` a fetch of that URI produced — pass the SAME
    ``canonicalize`` the drops used, or the keys won't line up). Small
    lists pass as a plain ``list[str]``; big ones stream as a Dataset,
    one shard per block."""
    if epoch is None:
        e, seg_dir = _claim_epoch(wal_dir)
    else:
        e = int(epoch)
        seg_dir = walmod.open_segment(wal_dir, e)

    def write(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        n = len(t)
        us = pc.cast(t[uri_col], pa.string())
        staged = pa.table({
            # deletes sit ABOVE every same-epoch fetch seq (max seconds
            # field): a takedown in the same drop always wins
            "seq": pa.array(np.full(
                n, (np.int64(e) << 40) | ((1 << (_SEC_BITS + _TIE_BITS)) - 1),
                dtype=np.int64)),
            "epoch": pa.array(np.full(n, e, dtype=np.int32)),
            "op": pa.array(["D"] * n, pa.string()),
            "doc_id": doc_id_for_uri(
                [canonicalize_uri(u) for u in us.to_pylist()]
                if canonicalize else us.to_pylist()),
            "tokens": pa.array([[]] * n, pa.list_(pa.int32())),
            "n_tok": pa.array(np.zeros(n, dtype=np.int32)),
            "source": pa.array([""] * n, pa.string()),
        })
        return pa.table(_write_shard(staged, seg_dir, "del"))

    if not isinstance(uris, rd.Dataset):
        uris = rd.from_arrow(pa.table({uri_col: pa.array(list(uris), pa.string())}))
    intents = uris.map_batches(write, batch_format="pyarrow",
                               batch_size=None).take_all()
    by_path = {r["path"]: int(r["rows"]) for r in intents}
    walmod.seal_segment(seg_dir)
    return {"epoch": e, "rows": sum(by_path.values()),
            "shards": len(by_path), "seg_dir": seg_dir}


def vacuum_stale_claims(wal_dir: str, max_age_secs: float = 3600.0) -> list[int]:
    """Remove ABANDONED producer claims: open (unsealed) segment dirs whose
    ``_OPEN`` marker hasn't been touched for ``max_age_secs``.

    The consumers' ordering barrier (`sources/wal.py:first_open_epoch`)
    defers every sealed segment above the smallest open id, so a crashed
    producer's claim eventually blocks the whole feed — this is the
    operator's unblock. Deleting an unsealed segment is always safe: the
    seal is the completeness barrier, so nothing unsealed was ever visible
    to a consumer, and the producer's re-run re-stages the entire drop
    under a fresh claim. A LIVE producer stays safe two ways: its shard
    writes TOUCH the marker (`_write_shard`), so only claims with no
    recent progress age out; and the reap is an atomic RENAME to a
    tombstone first — a concurrent ``seal_segment`` either lands before
    the rename (the marker vanishes and the re-check below restores the
    dir untouched) or fails loudly with ENOENT (the producer retries
    under a fresh claim) — a sealed segment can never be deleted, and a
    reaped producer can never silently "succeed". The tombstone file
    (``epoch-N.vacuumed``) pins the id against reuse. Returns the
    vacuumed epoch ids."""
    import re
    import shutil
    import time

    if not os.path.isdir(wal_dir):
        return []
    now = time.time()
    gone: list[int] = []
    for name in sorted(os.listdir(wal_dir)):
        m = re.fullmatch(r"epoch-(\d+)", name)
        if not m:
            continue
        d = os.path.join(wal_dir, name)
        marker = os.path.join(d, walmod.OPEN_MARKER)
        try:
            age = now - os.path.getmtime(marker)
        except OSError:
            continue  # sealed (no marker) or racing seal
        if age < max_age_secs:
            continue
        reaped = f"{d}.vacuuming-{os.getpid()}"
        try:
            os.rename(d, reaped)
        except OSError:
            continue  # lost a race with another vacuum
        if not os.path.exists(os.path.join(reaped, walmod.OPEN_MARKER)):
            # sealed between the mtime check and the rename: it is a
            # COMPLETE segment — put it back untouched
            os.rename(reaped, d)
            continue
        with open(f"{d}.vacuumed.tmp-{os.getpid()}", "w"):
            pass
        os.rename(f"{d}.vacuumed.tmp-{os.getpid()}", f"{d}.vacuumed")
        shutil.rmtree(reaped, ignore_errors=True)
        gone.append(int(m.group(1)))
    return gone
