"""CLI entry point for the CDC engine — the surface a user targets with
``ray job submit -- python -m go_tfdata_ray.cdc.cli <cmd> ...`` on a real
cluster (north rule). Owns the Ray session (guarded init); the library
itself never calls ``ray.init``.

Commands:
  generate-wal  --wal DIR --events N [--keys K --epochs E --max-len L]
  apply         --wal DIR --lake DIR [--partitions P]   one-shot replay
  tail          --wal DIR --lake DIR [--poll S --idle-limit N --view-checkpoint F]
  scan          --lake DIR --out DIR [--where col:op:val ...]
  lookup        --lake DIR --ids a,b,c                  point query → JSON rows
  changes       --lake DIR --since VERSION --out DIR [--collapsed]
  delete        --lake DIR (--where col:op:val ... | --ids a,b)  bulk tombstone
  compact       --lake DIR
  dedup         --lake DIR [--method exact|minhash|span|incremental|
                incremental-minhash --content-col C --dry-run]  content dedup
  status        --lake DIR                              manifest summary
  profile       --lake DIR [--columns a,b]    one-pass column stats → JSON
  ingest        --wal DIR (--warc F.. | --jsonl F..) [--expect RULE ..]
                crawl drop → sealed epoch, quality-gated (quarantine/warn/fail)
  quarantine    --wal DIR [--epoch N --show K]   inspect quarantined rows
  takedown      --wal DIR (--uris a,b | --uris-file F)  delete epoch by URI
  audit         --lake DIR --expect RULE .. [--columns a,b --at-version V
                --where col:op:val ..]   lake-wide rule-violation counts
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="go_tfdata_ray.cdc")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate-wal")
    g.add_argument("--wal", required=True)
    g.add_argument("--events", type=int, required=True)
    g.add_argument("--keys", type=int, default=0)
    g.add_argument("--epochs", type=int, default=4)
    g.add_argument("--max-len", type=int, default=64)
    g.add_argument("--parallel", action="store_true")

    for name in ("apply", "tail"):
        s = sub.add_parser(name)
        s.add_argument("--wal", required=True)
        s.add_argument("--lake", required=True)
        s.add_argument("--partitions", type=int, default=32)
        if name == "tail":
            s.add_argument("--poll", type=float, default=1.0)
            s.add_argument("--idle-limit", type=int, default=None)
            s.add_argument("--max-epochs", type=int, default=None)
            s.add_argument("--auto-compact", type=int, default=None,
                           help="compact when a partition exceeds N fragments")
            s.add_argument("--auto-dedup", type=int, default=None,
                           help="dedup-on-ingest: run the incremental "
                                "content dedup every N applied epochs")
            s.add_argument("--auto-neardup", type=int, default=None,
                           help="near-dup-on-ingest: run the incremental "
                                "MinHash/LSH dedup every N applied epochs")
            s.add_argument("--view-checkpoint", default=None,
                           help="maintain a live SourceRollup view, saved "
                                "atomically to this path after every commit "
                                "(resumes incrementally while the changes "
                                "feed is retained; silently full-refreshes "
                                "past compaction/vacuum)")

    s = sub.add_parser("scan")
    s.add_argument("--lake", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--where", action="append", default=[],
                   help="col:op:val predicate (op in ==,!=,>,>=,<,<=), repeatable")

    s = sub.add_parser("lookup")
    s.add_argument("--lake", required=True)
    s.add_argument("--ids", required=True, help="comma-separated doc_ids")
    s.add_argument("--at-version", type=int, default=None)

    s = sub.add_parser("changes")
    s.add_argument("--lake", required=True)
    s.add_argument("--since", type=int, required=True, help="manifest version")
    s.add_argument("--out", required=True)
    s.add_argument("--collapsed", action="store_true",
                   help="net change set: one row per key, tombstones retained")

    s = sub.add_parser("delete")
    s.add_argument("--lake", required=True)
    s.add_argument("--where", action="append", default=[],
                   help="col:op:val predicate, repeatable (matching CURRENT rows)")
    s.add_argument("--ids", default=None, help="comma-separated doc_ids")

    s = sub.add_parser("compact")
    s.add_argument("--lake", required=True)

    s = sub.add_parser("reshard")
    s.add_argument("--lake", required=True)
    s.add_argument("--partitions", type=int, required=True,
                   help="new hash-partition count (prefer multiplicative "
                        "hops: N*k or N/k)")

    s = sub.add_parser("replicate")
    s.add_argument("--src", required=True, help="source lake directory")
    s.add_argument("--dest", required=True, help="follower lake directory")
    s.add_argument("--partitions", type=int, default=32,
                   help="follower partition count (first sync only)")

    s = sub.add_parser("clone")
    s.add_argument("--lake", required=True)
    s.add_argument("--dest", required=True,
                   help="branch directory (must not already hold a lake)")
    s.add_argument("--at-version", type=int, default=None,
                   help="branch point (default: latest committed version)")
    s.add_argument("--no-indexes", action="store_true",
                   help="skip the dedup/near-dup/ANN sidecar indexes")

    s = sub.add_parser("dedup")
    s.add_argument("--lake", required=True)
    s.add_argument("--content-col", default=None,
                   help="content column (default: the index's pinned column "
                        "for incremental, else 'tokens')")
    s.add_argument("--shards", type=int, default=64)
    s.add_argument("--method",
                   choices=("exact", "minhash", "span", "incremental",
                            "incremental-minhash"),
                   default="exact")
    s.add_argument("--threshold", type=float, default=0.85,
                   help="minhash: estimated-Jaccard near-dup cut")
    s.add_argument("--span-k", type=int, default=50,
                   help="span: duplicated-window length in tokens")
    s.add_argument("--span-keep", choices=("first", "none"),
                   default="first",
                   help="span: protect the first occurrence, or cut all")
    s.add_argument("--keep-empty", action="store_true",
                   help="span: keep fully-emptied docs instead of "
                        "tombstoning them")
    s.add_argument("--dry-run", action="store_true",
                   help="count duplicates without tombstoning them")

    s = sub.add_parser("ingest")
    s.add_argument("--wal", required=True)
    s.add_argument("--warc", nargs="+", default=None,
                   help="WARC drop file(s) (.warc / .warc.gz)")
    s.add_argument("--jsonl", nargs="+", default=None,
                   help="JSONL drop file(s) (.jsonl / .jsonl.gz)")
    s.add_argument("--tar", nargs="+", default=None,
                   help="tar drop file(s) (.tar / .tar.gz; member stem = "
                        "URI, .txt member = text)")
    s.add_argument("--uri-col", default="uri")
    s.add_argument("--text-col", default="text")
    s.add_argument("--date-col", default="date")
    s.add_argument("--source", default="web")
    s.add_argument("--vocab", type=int, default=50257)
    s.add_argument("--strict", action="store_true",
                   help="jsonl: abort on malformed lines (default: skip)")
    s.add_argument("--canonicalize", action="store_true",
                   help="canonicalize URIs before keying (scheme/host case, "
                        "default ports, fragments, trailing slash)")
    s.add_argument("--expect", action="append", default=[],
                   metavar="RULE",
                   help="data-quality rule 'kind:args[=action]' (repeatable; "
                        "kinds: nonempty/notnull/url:COL, minlen/maxlen:COL:N, "
                        "match:COL:REGEX, range:COL:LO:HI; actions: "
                        "quarantine (default) / warn / fail)")

    s = sub.add_parser("quarantine")
    s.add_argument("--wal", required=True)
    s.add_argument("--epoch", type=int, default=None)
    s.add_argument("--show", type=int, default=0,
                   help="also print up to N quarantined rows")

    s = sub.add_parser("takedown")
    s.add_argument("--wal", required=True)
    s.add_argument("--uris", default=None, help="comma-separated URIs")
    s.add_argument("--uris-file", default=None, help="one URI per line")
    s.add_argument("--canonicalize", action="store_true",
                   help="key the takedown like a canonicalized ingest — "
                        "REQUIRED if the drops were ingested with "
                        "--canonicalize, or the tombstones miss")

    s = sub.add_parser("wal-vacuum")
    s.add_argument("--wal", required=True)
    s.add_argument("--age-secs", type=float, default=3600.0,
                   help="remove ABANDONED producer claims (open segments "
                        "whose _OPEN marker is older than this) — the "
                        "unblock for the consumers' ordering barrier")

    s = sub.add_parser("audit")
    s.add_argument("--lake", required=True)
    s.add_argument("--expect", action="append", required=True,
                   metavar="RULE",
                   help="data-quality rule 'kind:args' (repeatable; same "
                        "grammar as ingest --expect; policies are ignored — "
                        "an audit only counts)")
    s.add_argument("--columns", default=None,
                   help="comma-separated scan columns (default: the "
                        "columns the rules declare)")
    s.add_argument("--at-version", type=int, default=None,
                   help="audit an older committed snapshot (time travel)")
    s.add_argument("--where", action="append", default=[],
                   help="col:op:val predicate, repeatable — audit only the "
                        "matching live rows")

    s = sub.add_parser("status")
    s.add_argument("--lake", required=True)

    s = sub.add_parser("profile")
    s.add_argument("--lake", required=True)
    s.add_argument("--columns", default=None, help="comma-separated (default all)")

    a = ap.parse_args(argv)

    if a.cmd == "generate-wal":
        from ..sources import wal as walmod

        p = walmod.WalParams(
            n_events=a.events, n_keys=a.keys or max(a.events // 4, 16),
            num_epochs=a.epochs, max_len=a.max_len,
            **({"op_mode": "hash"} if a.parallel else {}),
        )
        if a.parallel:
            _ray_up()
            files = walmod.generate_wal_parallel(a.wal, p)
        else:
            files = walmod.generate_wal(a.wal, p)
        print(json.dumps({"wal": a.wal, "segments": len(files)}))
        return 0

    if a.cmd == "ingest":
        if sum(x is not None for x in (a.warc, a.jsonl, a.tar)) != 1:
            print(json.dumps({"error": "exactly one of --warc / --jsonl / --tar"}))
            return 2
        _ray_up()
        import pyarrow as pa

        from . import ingest as ing

        if a.warc:
            from ..sources import warc as warcmod

            # charset-aware decode (BOM → Content-Type charset → UTF-8 →
            # latin-1); the reader already undid the HTTP wire encodings
            docs = warcmod.read_warc(a.warc).map_batches(
                warcmod.decoded_text_column, batch_format="pyarrow")
        elif a.tar:
            from ..sources import tar as tarmod

            def tar_docs(t: pa.Table) -> pa.Table:
                keep = pa.compute.equal(t["member"], pa.scalar("txt"))
                t = t.filter(keep)
                texts = [bytes(p).decode("utf-8", "replace")
                         for p in t["data"].to_pylist()]
                return pa.table({
                    a.uri_col: pa.compute.cast(t[tarmod.KEY_COLUMN], pa.string()),
                    a.text_col: pa.array(texts, pa.string()),
                })

            docs = tarmod.read_tar_samples_streaming(a.tar).map_batches(
                tar_docs, batch_format="pyarrow")
        else:
            from ..sources import jsonl as jsonlmod

            docs = jsonlmod.read_jsonl(
                a.jsonl, columns=[a.uri_col, a.text_col, a.date_col],
                strict=a.strict)
        exps = None
        if a.expect:
            from .expect import ExpectationFailed, parse_expect_spec

            exps = [parse_expect_spec(s) for s in a.expect]
            try:
                out = ing.stage_drop(docs, a.wal, uri_col=a.uri_col,
                                     text_col=a.text_col, date_col=a.date_col,
                                     source=a.source, vocab=a.vocab,
                                     canonicalize=a.canonicalize,
                                     expectations=exps)
            except Exception as err:  # surface fail-policy aborts as JSON
                # Ray re-raises task errors as RayTaskError(UserCodeException)
                # with the original type only in the embedded traceback text
                detail = None
                if isinstance(err, ExpectationFailed):
                    detail = str(err)
                else:
                    for line in str(err).splitlines():
                        if "ExpectationFailed:" in line:
                            detail = line.split("ExpectationFailed:", 1)[1].strip()
                if detail is None:
                    raise
                print(json.dumps({"error": "expectation_failed",
                                  "detail": detail}))
                return 3
        else:
            out = ing.stage_drop(docs, a.wal, uri_col=a.uri_col,
                                 text_col=a.text_col, date_col=a.date_col,
                                 source=a.source, vocab=a.vocab,
                                 canonicalize=a.canonicalize)
        print(json.dumps(out))
        return 0

    if a.cmd == "quarantine":
        _ray_up()
        import pyarrow as pa

        from .expect import read_quarantine

        qds = read_quarantine(a.wal, epoch=a.epoch)

        # distributed per-batch count partials; only (rule, epoch, n)
        # rows reach the driver — the pile itself can be huge
        def vc(t: pa.Table) -> pa.Table:
            return t.group_by(["_violation", "_epoch"]).aggregate(
                [("_violation", "count")]).rename_columns(
                    ["_violation", "_epoch", "n"])

        part = qds.map_batches(vc, batch_format="pyarrow").to_pandas()
        by_rule = (part.groupby("_violation")["n"].sum().to_dict()
                   if len(part) else {})
        print(json.dumps({"rows": int(part["n"].sum()) if len(part) else 0,
                          "by_rule": {k: int(v) for k, v in by_rule.items()},
                          "epochs": sorted(int(x) for x in
                                           set(part["_epoch"])) if len(part) else []}))
        if a.show and len(part):
            head = qds.limit(a.show).to_pandas()
            cols = [c for c in head.columns if c not in ("payload",)]
            print(head[cols].to_string())
        return 0

    if a.cmd == "wal-vacuum":
        from . import ingest as ing

        gone = ing.vacuum_stale_claims(a.wal, max_age_secs=a.age_secs)
        print(json.dumps({"vacuumed_epochs": gone}))
        return 0

    if a.cmd == "takedown":
        if (a.uris is None) == (a.uris_file is None):
            print(json.dumps({"error": "exactly one of --uris / --uris-file"}))
            return 2
        _ray_up()
        from . import ingest as ing

        if a.uris:
            uris = [u.strip() for u in a.uris.split(",") if u.strip()]
        else:
            with open(a.uris_file) as f:
                uris = [ln.strip() for ln in f if ln.strip()]
        print(json.dumps(ing.stage_tombstones(
            uris, a.wal, canonicalize=a.canonicalize)))
        return 0

    from .engine import CDCEngine

    if a.cmd in ("apply", "tail"):
        _ray_up()
        eng = CDCEngine(a.lake, num_partitions=a.partitions)
        if a.cmd == "apply":
            results = eng.apply_wal(a.wal)
            applied = [r for r in results if not r.get("skipped")]
            print(json.dumps({
                "epochs_applied": len(applied),
                "rows_applied": sum(r.get("delta_rows", 0) for r in applied),
                "committed_epoch": eng.manifest.committed_epoch,
                "manifest_version": eng.manifest.version,
            }))
        else:
            hook = None
            if a.view_checkpoint:
                import os

                from .consumer import SourceRollup

                if os.path.exists(a.view_checkpoint):
                    view = SourceRollup.load(eng, a.view_checkpoint)
                else:
                    view = SourceRollup(eng)

                def hook(_r, _v=view, _p=a.view_checkpoint):
                    _v.refresh()
                    _v.save(_p)

            print(json.dumps(eng.tail(
                a.wal, poll_secs=a.poll, idle_limit=a.idle_limit,
                max_epochs=a.max_epochs, auto_compact=a.auto_compact,
                auto_dedup=a.auto_dedup,
                auto_neardup=a.auto_neardup,
                on_commit=hook,
            )))
        return 0

    if a.cmd == "scan":
        _ray_up()
        eng = CDCEngine(a.lake)
        where = None
        if a.where:
            def _parse(w: str):
                col, op, val = w.split(":", 2)
                try:
                    val = int(val)
                except ValueError:
                    try:
                        val = float(val)
                    except ValueError:
                        pass
                return (col, op, val)

            where = [_parse(w) for w in a.where]
        eng.scan(where=where).write_parquet(a.out)
        print(json.dumps({"out": a.out}))
        return 0

    if a.cmd == "lookup":
        _ray_up()
        eng = CDCEngine(a.lake)
        t = eng.lookup([i.strip() for i in a.ids.split(",")], at_version=a.at_version)
        rows = t.to_pylist()
        for r in rows:
            r.pop("tokens", None)  # keep stdout line-sized; payload via scan
        print(json.dumps({"found": len(rows), "rows": rows}))
        return 0

    if a.cmd == "changes":
        _ray_up()
        eng = CDCEngine(a.lake)
        ds = eng.changes(a.since, collapsed=a.collapsed)
        ds.write_parquet(a.out)
        print(json.dumps({"out": a.out, "since_version": a.since,
                          "collapsed": bool(a.collapsed)}))
        return 0

    if a.cmd == "delete":
        _ray_up()
        eng = CDCEngine(a.lake)
        if a.ids:
            out = eng.delete_where(doc_ids=[i.strip() for i in a.ids.split(",")])
        else:
            def _parse(w: str):
                col, op, val = w.split(":", 2)
                try:
                    val = int(val)
                except ValueError:
                    try:
                        val = float(val)
                    except ValueError:
                        pass
                return (col, op, val)

            out = eng.delete_where(where=[_parse(w) for w in a.where])
        print(json.dumps(out))
        return 0

    if a.cmd == "compact":
        _ray_up()
        eng = CDCEngine(a.lake)
        print(json.dumps(eng.compact()))
        return 0

    if a.cmd == "reshard":
        _ray_up()
        eng = CDCEngine(a.lake)
        print(json.dumps(eng.reshard(a.partitions)))
        return 0

    if a.cmd == "replicate":
        _ray_up()
        from .replicate import sync_replica
        print(json.dumps(sync_replica(a.src, a.dest,
                                      num_partitions=a.partitions)))
        return 0

    if a.cmd == "clone":
        # pure metadata op: no Ray session needed
        from ..state import manifest as mf
        print(json.dumps(mf.clone_lake(a.lake, a.dest,
                                       at_version=a.at_version,
                                       include_indexes=not a.no_indexes)))
        return 0

    if a.cmd == "dedup":
        _ray_up()
        eng = CDCEngine(a.lake)
        if a.method == "incremental":
            out = eng.dedup_incremental(content_col=a.content_col,
                                        num_shards=a.shards,
                                        dry_run=a.dry_run)
        elif a.method == "incremental-minhash":
            out = eng.neardup_incremental(content_col=a.content_col,
                                          num_shards=a.shards,
                                          threshold=a.threshold,
                                          dry_run=a.dry_run)
        else:
            out = eng.dedup_lake(
                content_col=a.content_col or "tokens", num_shards=a.shards,
                method=a.method, threshold=a.threshold, dry_run=a.dry_run,
                span_k=a.span_k, span_keep=a.span_keep,
                drop_empty=not a.keep_empty)
        print(json.dumps(out))
        return 0

    if a.cmd == "audit":
        _ray_up()
        from .expect import parse_expect_spec

        eng = CDCEngine(a.lake)
        rules = [parse_expect_spec(s) for s in a.expect]
        cols = [c.strip() for c in a.columns.split(",")] if a.columns else None
        where = None
        if a.where:
            def _parse(w: str):
                col, op, val = w.split(":", 2)
                try:
                    val = int(val)
                except ValueError:
                    try:
                        val = float(val)
                    except ValueError:
                        pass
                return (col, op, val)

            where = [_parse(w) for w in a.where]
        out = eng.audit(rules, columns=cols, at_version=a.at_version,
                        where=where).to_pandas()
        print(json.dumps({
            "violations": {r: int(n) for r, n in
                           zip(out["rule"], out["violations"])},
            "at_version": (a.at_version if a.at_version is not None
                           else eng.manifest.version),
        }))
        return 0

    if a.cmd == "profile":
        _ray_up()
        from ..functions.profile import profile as _profile

        eng = CDCEngine(a.lake)
        cols = [c.strip() for c in a.columns.split(",")] if a.columns else None
        out = _profile(eng.scan(columns=cols), columns=cols)
        print(out.to_json(orient="records"))
        return 0

    if a.cmd == "status":
        from ..state import manifest as mf

        m = mf.load_latest(a.lake)
        if m is None:
            print(json.dumps({"error": "no manifest"}))
            return 1
        bases = sum(len(ps.files) for ps in m.partitions.values())
        rows = sum(f.get("rows", 0) for ps in m.partitions.values() for f in ps.files)
        rows += sum(ep.get("rows", 0) for ep in m.epochs)
        print(json.dumps({
            "version": m.version, "committed_epoch": m.committed_epoch,
            "num_partitions": m.num_partitions, "base_files": bases,
            "uncompacted_epochs": len(m.epochs),
            "file_rows_upper_bound": rows, "stats": m.stats,
        }))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
