"""Persisted IVF ANN index: build inverted lists ONCE, serve queries by
reading only the probed lists.

``functions/ann.py``'s ``ivf_topk`` routes during a FULL corpus scan —
right for one-shot dedup-ish sweeps, wrong for the platform shape where
similarity queries run repeatedly against a slowly-changing lake. This
module persists the routing: a trained coarse quantizer plus per-list
Parquet fragments, so a query at ``n_probe`` touches only the probed
fraction of the corpus bytes (fragments-read < corpus-fragments is
asserted in tests/test_functions.py).

Layout (the ``cdc/dedupidx.py`` persisted-index pattern):

    index_dir/
      state.json            # meta: dim, n_centroids, cols, n_rows, version
      centroids.npy         # (n_centroids, dim) float64 unit rows — tiny
      runs/run-<uuid>.parquet  # one sorted run per build/append task; ROW
                            # GROUPS aligned to list boundaries (the CDC
                            # engine's run-file pattern: files = #tasks,
                            # not #tasks × #lists)
      intents-*.parquet     # fragment manifest: (list_id, path, rg, rows)

Commit order mirrors the engine's 2-phase shape: run files land first
(tmp+rename), then the intents segment (tmp+rename — the commit point
readers key on), then state.json. A crash before the intents rename
leaves orphan run files invisible to readers; re-running the append is
idempotent-by-rebuild (the index is derived data).

Incremental append: new lake rows are assigned with the PERSISTED
quantizer (no retrain — recall for new rows matches the train-time
distribution; retrain by rebuilding) and land as new run files + a new
intents segment, LSM-style. Lists accumulate fragments across appends;
``fragment_count`` exposes the pile size so callers can rebuild when it
grows past taste.

Product quantization (``pq_m=M``): each unit vector's RESIDUAL against
its coarse centroid is split into M subvectors, each encoded as the
nearest of 256 per-subspace codebook rows (classic IVF-PQ) — M bytes per
vector instead of 4·dim. Codes land as an extra ``pq_codes`` column in
the SAME run files; because Parquet is columnar, an ADC query reads only
(key, pq_codes) of the probed row groups — the embedding column's bytes
never leave storage — and scores with one 256-entry lookup table per
(query, subspace): score ≈ q·c_list + Σ_m LUT[m, code_m].
``mode="adc_refine"`` then re-reads ONLY the surviving candidates' row
groups' embedding column and rescores exactly — the two-stage serving
shape that makes a 100 TB corpus scannable at ~M/(4·dim) of the IO.
"""

from __future__ import annotations

import glob
import json
import os
import uuid
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from .ann import _finalize_topk, _to_matrix, _train_centroids, _unit

_STATE = "state.json"
_CENTROIDS = "centroids.npy"
_PQ = "pq_codebooks.npy"
_CODES = "pq_codes"


def _train_pq(residuals: np.ndarray, pq_m: int, seed: int,
              iters: int = 8) -> np.ndarray:
    """Per-subspace L2 k-means codebooks (M, 256, dim/M) on a driver-side
    residual sample — like ``_train_centroids`` the cost is O(sample)
    regardless of corpus size, and the trained tensor is a few hundred KB
    broadcast once. Deterministic seeded init per subspace."""
    n, dim = residuals.shape
    if dim % pq_m:
        raise ValueError(f"dim {dim} not divisible by pq_m {pq_m}")
    dsub = dim // pq_m
    k = min(256, n)
    out = np.empty((pq_m, k, dsub), dtype=np.float64)
    rng = np.random.default_rng(seed)
    for m in range(pq_m):
        sub = residuals[:, m * dsub:(m + 1) * dsub]
        cb = sub[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(iters):
            # ||x - c||^2 argmin == argmin(||c||^2 - 2 x·c)
            d = (cb * cb).sum(axis=1) - 2.0 * (sub @ cb.T)
            assign = np.argmin(d, axis=1)
            for c in range(k):
                rows = sub[assign == c]
                if len(rows):
                    cb[c] = rows.mean(axis=0)
        out[m] = cb
    return out


def _pq_encode(unit: np.ndarray, assign: np.ndarray, cent: np.ndarray,
               codebooks: np.ndarray) -> np.ndarray:
    """(n, M) uint8 codes: nearest codebook row per residual subvector."""
    resid = unit - cent[assign]
    pq_m, _, dsub = codebooks.shape
    codes = np.empty((len(unit), pq_m), dtype=np.uint8)
    for m in range(pq_m):
        cb = codebooks[m]
        sub = resid[:, m * dsub:(m + 1) * dsub]
        d = (cb * cb).sum(axis=1) - 2.0 * (sub @ cb.T)
        codes[:, m] = np.argmin(d, axis=1).astype(np.uint8)
    return codes


def _intents(rows: list[tuple[int, str, int, int]]) -> pa.Table:
    return pa.table({
        "list_id": pa.array([r[0] for r in rows], pa.int32()),
        "path": pa.array([r[1] for r in rows], pa.string()),
        "rg": pa.array([r[2] for r in rows], pa.int32()),
        "rows": pa.array([r[3] for r in rows], pa.int64()),
    })


def _write_list_run(t: pa.Table, index_dir: str, cent_ref,
                    emb_col: str, key_col: str, pq_ref=None) -> pa.Table:
    """Per-task build/append kernel: assign each row to its nearest
    centroid, sort by list id, write ONE run file whose row groups align
    with list boundaries, return the (list_id, path, rg, rows) intents.
    With ``pq_ref`` (broadcast codebooks) a ``pq_codes`` fixed-size-list
    uint8 column is written alongside — column pruning at query time is
    what makes the ADC read cheap."""
    if len(t) == 0:
        return _intents([])
    cent = ray.get(cent_ref)
    unit = _unit(_to_matrix(t[emb_col]))
    assign = np.argmax(unit @ cent.T, axis=1).astype(np.int32)
    order = np.argsort(assign, kind="stable")
    t = t.select([key_col, emb_col]).take(pa.array(order))
    assign = assign[order]
    if pq_ref is not None:
        codes = _pq_encode(unit[order], assign, cent, ray.get(pq_ref))
        t = t.append_column(_CODES, pa.FixedSizeListArray.from_arrays(
            pa.array(codes.reshape(-1), pa.uint8()), codes.shape[1]))
    bounds = np.flatnonzero(np.r_[True, assign[1:] != assign[:-1], True])
    rel = os.path.join("runs", f"run-{uuid.uuid4().hex[:12]}.parquet")
    final = os.path.join(index_dir, rel)
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = final + f".tmp-{uuid.uuid4().hex[:8]}"
    rows: list[tuple[int, str, int, int]] = []
    writer = pq.ParquetWriter(tmp, t.schema, compression="lz4")
    try:
        for rg in range(len(bounds) - 1):
            lo, hi = int(bounds[rg]), int(bounds[rg + 1])
            writer.write_table(t.slice(lo, hi - lo), row_group_size=hi - lo)
            rows.append((int(assign[lo]), rel, rg, hi - lo))
    finally:
        writer.close()
    os.rename(tmp, final)
    return _intents(rows)


def _commit_intents(index_dir: str, intents: list[dict], state: dict) -> None:
    """Phase 2: intents segment (the readers' commit point), then state.
    Each fragment row carries the committing index VERSION — the staleness
    rank ``sync_ann_index``'s supersede entries compare against."""
    if intents:
        seg = os.path.join(
            index_dir, f"intents-v{state['version']:06d}-{uuid.uuid4().hex[:8]}.parquet")
        tbl = _intents([(int(i["list_id"]), i["path"], int(i["rg"]), int(i["rows"]))
                        for i in intents])
        tbl = tbl.append_column(
            "ver", pa.array(np.full(tbl.num_rows, state["version"], dtype=np.int32)))
        pq.write_table(tbl, seg + ".tmp")
        os.rename(seg + ".tmp", seg)
    tmp = os.path.join(index_dir, _STATE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.rename(tmp, os.path.join(index_dir, _STATE))


def _load_state(index_dir: str) -> tuple[dict, np.ndarray]:
    with open(os.path.join(index_dir, _STATE)) as f:
        state = json.load(f)
    cent = np.load(os.path.join(index_dir, _CENTROIDS))
    return state, cent


def load_intents(index_dir: str) -> pa.Table:
    """The fragment manifest: every committed (list_id, path, rg, rows)."""
    segs = sorted(glob.glob(os.path.join(index_dir, "intents-*.parquet")))
    if not segs:
        return _intents([])
    return pa.concat_tables([pq.read_table(s) for s in segs])


def fragment_count(index_dir: str) -> int:
    return load_intents(index_dir).num_rows


def build_ann_index(
    ds: rd.Dataset,
    index_dir: str,
    n_centroids: int = 64,
    emb_col: str = "embedding",
    key_col: str = "vec_id",
    sample_size: int = 4096,
    seed: int = 29,
    pq_m: int | None = None,
) -> dict[str, Any]:
    """Train the coarse quantizer on a bounded sample, route the whole
    corpus to inverted lists in one distributed pass, persist. Raises if
    ``index_dir`` already holds an index (the index is derived — rebuild
    by removing the directory). ``pq_m`` additionally trains per-subspace
    product-quantization codebooks on the sample residuals and stores
    M-byte codes per vector for ADC serving (``mode="adc"``)."""
    if os.path.exists(os.path.join(index_dir, _STATE)):
        raise FileExistsError(f"ANN index already exists at {index_dir}")
    os.makedirs(index_dir, exist_ok=True)
    batches = [b for b in ds.limit(sample_size).iter_batches(
        batch_size=sample_size, batch_format="pyarrow") if b.num_rows]
    if not batches:
        raise ValueError(
            "cannot build an ANN index over an empty corpus (no rows with "
            f"a non-null {emb_col!r})")
    sample = _to_matrix(pa.concat_tables(batches)[emb_col])
    cent = _train_centroids(sample, n_centroids, seed=seed)
    np.save(os.path.join(index_dir, _CENTROIDS + ".tmp.npy"), cent)
    os.rename(os.path.join(index_dir, _CENTROIDS + ".tmp.npy"),
              os.path.join(index_dir, _CENTROIDS))
    import functools

    pq_ref = None
    if pq_m is not None:
        s_unit = _unit(sample)
        s_assign = np.argmax(s_unit @ cent.T, axis=1)
        books = _train_pq(s_unit - cent[s_assign], pq_m, seed=seed)
        np.save(os.path.join(index_dir, _PQ + ".tmp.npy"), books)
        os.rename(os.path.join(index_dir, _PQ + ".tmp.npy"),
                  os.path.join(index_dir, _PQ))
        pq_ref = ray.put(books)

    cent_ref = ray.put(cent)
    intents = ds.map_batches(
        functools.partial(_write_list_run, index_dir=index_dir,
                          cent_ref=cent_ref, emb_col=emb_col, key_col=key_col,
                          pq_ref=pq_ref),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    ).take_all()  # small intent rows only
    n_rows = sum(int(i["rows"]) for i in intents)
    state = {"version": 1, "dim": int(cent.shape[1]),
             "n_centroids": int(cent.shape[0]), "emb_col": emb_col,
             "key_col": key_col, "n_rows": n_rows, "seed": seed,
             "sample_size": sample_size, "pq_m": pq_m}
    _commit_intents(index_dir, intents, state)
    return {"n_rows": n_rows, "fragments": len(intents),
            "n_centroids": int(cent.shape[0]), "version": 1}


def append_ann_index(ds: rd.Dataset, index_dir: str) -> dict[str, Any]:
    """Incremental append: assign new rows with the persisted quantizer
    (no retrain), land new run files + one new intents segment."""
    state, cent = _load_state(index_dir)
    import functools

    cent_ref = ray.put(cent)
    pq_ref = (ray.put(np.load(os.path.join(index_dir, _PQ)))
              if state.get("pq_m") else None)
    intents = ds.map_batches(
        functools.partial(_write_list_run, index_dir=index_dir,
                          cent_ref=cent_ref, emb_col=state["emb_col"],
                          key_col=state["key_col"], pq_ref=pq_ref),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    ).take_all()
    n_new = sum(int(i["rows"]) for i in intents)
    state = dict(state)
    state["version"] = int(state["version"]) + 1
    state["n_rows"] = int(state["n_rows"]) + n_new
    _commit_intents(index_dir, intents, state)
    return {"n_rows_appended": n_new, "fragments_appended": len(intents),
            "version": state["version"]}


def plan_probe(index_dir: str, queries: pd.DataFrame, n_probe: int = 8,
               ) -> tuple[pa.Table, dict[int, np.ndarray]]:
    """Query planning, exposed for tests/metrics: the fragment rows a
    query set would READ (subset of the manifest — the partial-probe
    I/O bound) and the list_id → probing-query-indices map."""
    state, cent = _load_state(index_dir)
    q_unit = _unit(np.stack(queries[state["emb_col"]].to_numpy()).astype(np.float64))
    n_probe = min(n_probe, len(cent))
    q_probes = np.argsort(-(q_unit @ cent.T), axis=1)[:, :n_probe]
    probing = {int(c): np.flatnonzero((q_probes == c).any(axis=1))
               for c in np.unique(q_probes)}
    frags = load_intents(index_dir)
    keep = np.isin(frags["list_id"].to_numpy(zero_copy_only=False),
                   np.fromiter(probing, dtype=np.int32, count=len(probing)))
    return frags.filter(pa.array(keep)), probing


def query_ann_index(
    index_dir: str,
    queries: pd.DataFrame,
    k: int = 10,
    n_probe: int = 8,
    exclude_self: bool = True,
    mode: str = "exact",
    refine_factor: int = 4,
) -> rd.Dataset:
    """Cosine top-k over the persisted index: reads ONLY the probed lists'
    fragments (one read task per fragment batch — no full-corpus scan).
    n_probe = n_centroids ⇒ exact (shares the brute-force oracle).
    Returns (query_id, key_col, score, rank).

    ``mode``:
      - ``"exact"``   — read the embedding column of probed fragments,
        exact cosine within the probe set (the default, pre-PQ path).
      - ``"adc"``     — read ONLY (key, pq_codes) of probed fragments
        (Parquet column pruning: M bytes/vector instead of 4·dim), score
        asymmetrically via per-query lookup tables. Scores approximate.
      - ``"adc_refine"`` — ADC narrows to ``k·refine_factor`` candidates
        per query, then ONLY those candidates' row groups' embedding
        column is re-read and rescored exactly. Exact scores; ranks match
        ``"exact"`` whenever the true top-k survive the ADC narrow.
    """
    if mode not in ("exact", "adc", "adc_refine"):
        raise ValueError(f"unknown mode {mode!r}")
    state, _ = _load_state(index_dir)
    emb_col, key_col = state["emb_col"], state["key_col"]
    q_ids = queries[key_col].to_numpy()
    q_unit = _unit(np.stack(queries[emb_col].to_numpy()).astype(np.float64))
    frags, probing = plan_probe(index_dir, queries, n_probe)
    # key type follows the query ids (string doc_id lakes vs int vec_id
    # corpora) so empty results — outer no-fragments AND per-block
    # all-dead fallbacks — union cleanly with non-empty ones
    key_t = (pa.string() if q_ids.dtype == object else
             pa.from_numpy_dtype(q_ids.dtype))
    if frags.num_rows == 0:
        empty = pa.table({"query_id": pa.array([], key_t),
                          key_col: pa.array([], key_t),
                          "score": pa.array([], pa.float64()),
                          "rank": pa.array([], pa.int64())})
        return rd.from_arrow(empty)
    dead = load_dead(index_dir)
    if mode != "exact":
        return _query_adc(index_dir, state, frags, probing, dead, q_ids,
                          q_unit, key_t, k, exclude_self, mode, refine_factor)
    ref = ray.put({"q_ids": q_ids, "q_unit": q_unit, "probing": probing,
                   "dead": dead})

    def score_fragments(t: pa.Table) -> pa.Table:
        s = ray.get(ref)
        out_q, out_id, out_s = [], [], []
        # open each run file ONCE per block: a run holds one row group per
        # list, so probing k lists of the same run must not re-parse its
        # footer k times
        files: dict[str, pq.ParquetFile] = {}
        for row in range(t.num_rows):
            list_id = int(t["list_id"][row].as_py())
            q_rows = s["probing"].get(list_id)
            if q_rows is None or not len(q_rows):
                continue
            path = t["path"][row].as_py()
            pf = files.get(path)
            if pf is None:
                pf = files[path] = pq.ParquetFile(os.path.join(index_dir, path))
            frag = pf.read_row_group(int(t["rg"][row].as_py()))
            ids = frag[key_col].to_numpy(zero_copy_only=False)
            if s["dead"]:
                # staleness mask: a superseded/deleted key is live only in
                # fragments committed at ver >= its min_live_ver
                frag_ver = int(t["ver"][row].as_py())
                mlv = pd.Series(ids).map(s["dead"]).to_numpy()
                keep = np.flatnonzero(np.isnan(mlv) | (frag_ver >= mlv))
                if len(keep) == 0:
                    continue
                if len(keep) < len(ids):
                    ids = ids[keep]
                    frag = frag.take(pa.array(keep))
            unit = _unit(_to_matrix(frag[emb_col]))
            sims = unit @ s["q_unit"][q_rows].T  # |list| × |probing queries|
            for j, qi in enumerate(q_rows):
                qid = s["q_ids"][qi]
                col = sims[:, j]
                if exclude_self:
                    col = np.where(ids == qid, -np.inf, col)
                kk = min(k, len(col))
                top = np.argpartition(-col, kk - 1)[:kk] if kk else np.array([], np.int64)
                top = top[np.isfinite(col[top])]  # drop the masked self row
                out_q.append(np.full(len(top), qid))
                out_id.append(ids[top])
                out_s.append(col[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], key_t),
                             key_col: pa.array([], key_t),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            key_col: pa.array(np.concatenate(out_id)),
            "score": pa.array(np.concatenate(out_s)),
        })

    # one block per few fragments (sliced driver-side — the plan table is
    # tiny, and rd.from_arrow(list) makes one block per slice with no
    # repartition shuffle): fragment READS parallelize across the pool
    n_blocks = max(1, min(frags.num_rows, 64))
    step = -(-frags.num_rows // n_blocks)
    slices = [frags.slice(i, step) for i in range(0, frags.num_rows, step)]
    cand = rd.from_arrow(slices).map_batches(
        score_fragments, batch_format="pyarrow", zero_copy_batch=True,
    )
    return _finalize_topk(cand, key_col, k, len(q_ids))


def _frag_slices(frags: pa.Table) -> list[pa.Table]:
    """Driver-side plan slicing shared by the exact and ADC paths: one
    block per few fragments, no repartition shuffle."""
    n_blocks = max(1, min(frags.num_rows, 64))
    step = -(-frags.num_rows // n_blocks)
    return [frags.slice(i, step) for i in range(0, frags.num_rows, step)]


def _adc_score_block(t: pa.Table, index_dir: str, s: dict, key_col: str,
                     key_t, k_cand: int, exclude_self: bool,
                     provenance: bool) -> pa.Table:
    """ADC kernel over one block of fragment-plan rows (module-level so
    tests can drive it in-process and assert the pruned read column set).
    Reads ONLY (key, pq_codes) of each probed row group; score[i] =
    q·c_list + Σ_m LUT[q][m, codes[i, m]]. With ``provenance`` the output
    carries (path, rg, row) so a refine stage can re-read exactly the
    surviving rows' row groups."""
    out: list[dict] = []
    files: dict[str, pq.ParquetFile] = {}
    pq_m = s["luts"].shape[1]
    m_idx = np.arange(pq_m)[:, None]
    for row in range(t.num_rows):
        list_id = int(t["list_id"][row].as_py())
        q_rows = s["probing"].get(list_id)
        if q_rows is None or not len(q_rows):
            continue
        path = t["path"][row].as_py()
        pf = files.get(path)
        if pf is None:
            pf = files[path] = pq.ParquetFile(os.path.join(index_dir, path))
        rg = int(t["rg"][row].as_py())
        frag = pf.read_row_group(rg, columns=[key_col, _CODES])
        ids = frag[key_col].to_numpy(zero_copy_only=False)
        rows_in_rg = np.arange(len(ids))
        if s["dead"]:
            frag_ver = int(t["ver"][row].as_py())
            mlv = pd.Series(ids).map(s["dead"]).to_numpy()
            keep = np.flatnonzero(np.isnan(mlv) | (frag_ver >= mlv))
            if len(keep) == 0:
                continue
            if len(keep) < len(ids):
                ids, rows_in_rg = ids[keep], rows_in_rg[keep]
                frag = frag.take(pa.array(keep))
        codes_arr = frag[_CODES].combine_chunks()
        codes = codes_arr.flatten().to_numpy(zero_copy_only=False).reshape(
            len(ids), pq_m)
        for j, qi in enumerate(q_rows):
            qid = s["q_ids"][qi]
            col = s["bases"][qi, list_id] + s["luts"][qi][m_idx, codes.T].sum(axis=0)
            if exclude_self:
                col = np.where(ids == qid, -np.inf, col)
            kk = min(k_cand, len(col))
            top = np.argpartition(-col, kk - 1)[:kk] if kk else np.array([], np.int64)
            top = top[np.isfinite(col[top])]
            if not len(top):
                continue
            d = {"query_id": np.full(len(top), qid), "key": ids[top],
                 "score": col[top]}
            if provenance:
                d["_path"] = np.full(len(top), path, dtype=object)
                d["_rg"] = np.full(len(top), rg, dtype=np.int64)
                d["_row"] = rows_in_rg[top].astype(np.int64)
            out.append(d)
    if not out:
        cols = {"query_id": pa.array([], key_t), key_col: pa.array([], key_t),
                "score": pa.array([], pa.float64())}
        if provenance:
            cols.update({"_path": pa.array([], pa.string()),
                         "_rg": pa.array([], pa.int64()),
                         "_row": pa.array([], pa.int64())})
        return pa.table(cols)
    cols = {"query_id": pa.array(np.concatenate([d["query_id"] for d in out])),
            key_col: pa.array(np.concatenate([d["key"] for d in out])),
            "score": pa.array(np.concatenate([d["score"] for d in out]))}
    if provenance:
        cols.update({
            "_path": pa.array(np.concatenate([d["_path"] for d in out]).tolist(),
                              pa.string()),
            "_rg": pa.array(np.concatenate([d["_rg"] for d in out])),
            "_row": pa.array(np.concatenate([d["_row"] for d in out]))})
    return pa.table(cols)


def _refine_block(t: pa.Table, index_dir: str, ref, emb_col: str,
                  key_col: str, key_t) -> pa.Table:
    """Exact rescore of ADC survivors: re-read ONLY the candidate rows'
    row groups, embedding column only, gather the candidate rows, one dot
    product per (candidate, its query)."""
    s = ray.get(ref)
    if t.num_rows == 0:
        return pa.table({"query_id": pa.array([], key_t),
                         key_col: pa.array([], key_t),
                         "score": pa.array([], pa.float64())})
    qpos = s["qpos"]  # query_id -> row in q_unit
    df = t.to_pandas()
    out_q, out_id, out_s = [], [], []
    files: dict[str, pq.ParquetFile] = {}
    for (path, rg), grp in df.groupby(["_path", "_rg"], sort=False):
        pf = files.get(path)
        if pf is None:
            pf = files[path] = pq.ParquetFile(os.path.join(index_dir, path))
        frag = pf.read_row_group(int(rg), columns=[emb_col])
        unit = _unit(_to_matrix(frag[emb_col]))
        vecs = unit[grp["_row"].to_numpy()]
        qis = np.fromiter((qpos[q] for q in grp["query_id"]), dtype=np.int64,
                          count=len(grp))
        scores = np.einsum("ij,ij->i", vecs, s["q_unit"][qis])
        out_q.append(grp["query_id"].to_numpy())
        out_id.append(grp[key_col].to_numpy())
        out_s.append(scores)
    return pa.table({
        "query_id": pa.array(np.concatenate(out_q)),
        key_col: pa.array(np.concatenate(out_id)),
        "score": pa.array(np.concatenate(out_s), pa.float64()),
    })


def _query_adc(index_dir: str, state: dict, frags: pa.Table, probing: dict,
               dead: dict, q_ids: np.ndarray, q_unit: np.ndarray, key_t,
               k: int, exclude_self: bool, mode: str,
               refine_factor: int) -> rd.Dataset:
    """The PQ serving path: ADC narrow over code columns, optional exact
    refine over only the survivors' row groups."""
    import functools

    if not state.get("pq_m"):
        raise ValueError(
            f"index at {index_dir} was built without pq_m — ADC modes need "
            "PQ codes (rebuild with build_ann_index(..., pq_m=M))")
    emb_col, key_col = state["emb_col"], state["key_col"]
    cent = np.load(os.path.join(index_dir, _CENTROIDS))
    books = np.load(os.path.join(index_dir, _PQ))
    pq_m, _, dsub = books.shape
    # per-query tables: bases[q, c] = q·c (probed entries used);
    # luts[q, m, j] = q_sub_m · codebook[m, j]
    bases = q_unit @ cent.T
    luts = np.einsum("qmd,mkd->qmk",
                     q_unit.reshape(len(q_unit), pq_m, dsub), books)
    k_cand = k if mode == "adc" else k * refine_factor
    payload = {"q_ids": q_ids, "probing": probing, "dead": dead,
               "bases": bases, "luts": luts}
    ref = ray.put(payload)

    def adc_stage(t: pa.Table) -> pa.Table:
        return _adc_score_block(t, index_dir, ray.get(ref), key_col, key_t,
                                k_cand, exclude_self,
                                provenance=(mode == "adc_refine"))

    cand = rd.from_arrow(_frag_slices(frags)).map_batches(
        adc_stage, batch_format="pyarrow", zero_copy_batch=True)
    if mode == "adc":
        return _finalize_topk(cand, key_col, k, len(q_ids))
    # global ADC narrow to k·refine_factor per query (provenance survives
    # _finalize_topk's head-per-query), then exact rescore + final top-k
    narrowed = _finalize_topk(cand, key_col, k_cand, len(q_ids))
    narrowed = narrowed.map_batches(
        lambda t: t.drop_columns(["rank"]), batch_format="pyarrow")
    rref = ray.put({"q_unit": q_unit,
                    "qpos": {q: i for i, q in enumerate(q_ids)}})
    refined = narrowed.map_batches(
        functools.partial(_refine_block, index_dir=index_dir, ref=rref,
                          emb_col=emb_col, key_col=key_col, key_t=key_t),
        batch_format="pyarrow", zero_copy_batch=True)
    return _finalize_topk(refined, key_col, k, len(q_ids))


# --------------------------------------------------------------------------
# lake sync: keep the index current off the CDC changes feed
# --------------------------------------------------------------------------

def load_dead(index_dir: str) -> dict:
    """The supersede map: key → min_live_ver (float; +inf = deleted until
    rebuild). Entries land one file per sync; later syncs override earlier
    ones for the same key (files sort by committing version). Size is
    O(keys churned since the last rebuild) — ``rebuild`` compacts it away
    with the fragment pile."""
    segs = sorted(glob.glob(os.path.join(index_dir, "dead-v*.parquet")))
    dead: dict = {}
    for s in segs:
        t = pq.read_table(s)
        dead.update(zip(t["key"].to_pylist(),
                        t["min_live_ver"].to_numpy(zero_copy_only=False)))
    return dead


def sync_ann_index(
    eng,
    index_dir: str,
    emb_col: str = "embedding",
    key_col: str = "doc_id",
    n_centroids: int = 64,
    sample_size: int = 4096,
    seed: int = 29,
    pq_m: int | None = None,
) -> dict[str, Any]:
    """Keep a persisted IVF index current against a CDC lake (`eng` is a
    ``cdc.engine.CDCEngine``) using its incremental ``changes()`` feed —
    the repeated-query serving shape: build once, then each sync costs
    O(change set), never a corpus re-scan.

    First call builds from ``eng.scan()`` (rows with a null ``emb_col``
    are skipped) and records the lake manifest version. Later calls read
    ``changes(since, collapsed=True)``: upserted vectors APPEND as new
    run fragments (LSM — the old vector rows stay on disk), and every
    changed key gets a SUPERSEDE entry ``(key, min_live_ver)`` — ``V``
    (the appending index version) for upserts, ``+inf`` for deletes — so
    ``query_ann_index`` masks the stale rows. If the feed has been folded
    by compaction/vacuum (the engine's full-resync contract), the index
    is REBUILT from a fresh scan.

    Crash windows heal on re-sync: the lake version is committed LAST, so
    an interrupted sync reprocesses the same change set — re-appended
    vectors land at a higher version and the rewritten supersede entries
    mask the half-committed attempt's rows (same idempotence argument as
    the engine's content-addressed staging). Between an append and its
    supersede write, stale neighbors are transiently visible — acceptable
    for a derived, approximate structure.

    Rebuild (``rm -rf index_dir`` + sync, or a compaction-triggered
    resync) is the compaction story for both the fragment pile and the
    supersede map."""
    import hashlib as _hashlib

    state_path = os.path.join(index_dir, _STATE)

    def _full_build() -> dict[str, Any]:
        import shutil

        if os.path.isdir(index_dir):
            shutil.rmtree(index_dir)
        live = eng.scan(columns=[key_col, emb_col]).map_batches(
            lambda t: t.filter(pa.compute.is_valid(t[emb_col])),
            batch_format="pyarrow", zero_copy_batch=True)
        out = build_ann_index(live, index_dir, n_centroids=n_centroids,
                              emb_col=emb_col, key_col=key_col,
                              sample_size=sample_size, seed=seed, pq_m=pq_m)
        st, _ = _load_state(index_dir)
        st["lake_version"] = int(eng.manifest.version)
        _commit_intents(index_dir, [], st)
        out["mode"] = "build"
        out["lake_version"] = st["lake_version"]
        return out

    if not os.path.exists(state_path):
        return _full_build()

    state, _ = _load_state(index_dir)
    since = int(state.get("lake_version", -1))
    cur = int(eng.manifest.version)
    if since == cur:
        return {"mode": "noop", "lake_version": cur, "n_appended": 0}
    try:
        # materialize: both the vector append and the supersede pass read
        # the same collapsed change set — one execution of the fragment
        # reads + per-partition collapse, not two (change sets are small
        # by the feed's retention contract)
        ch = eng.changes(since, collapsed=True).materialize()
    except RuntimeError:  # feed folded by compaction / manifest vacuumed
        return _full_build()

    def _upserts(t: pa.Table) -> pa.Table:
        if emb_col not in t.column_names:
            # schema-stable EMPTY feed blocks carry only the WAL columns
            # (engine.changes's no-fragments fallback) — nothing to append.
            # The fallback's column types are nominal: the only consumer
            # (_write_list_run) short-circuits zero-row blocks before
            # touching any column, and nothing downstream unifies block
            # schemas, so a lake with e.g. list<float32> embeddings never
            # sees this float64 placeholder conflict.
            return pa.table({key_col: pa.array([], pa.string()),
                             emb_col: pa.array([], pa.list_(pa.float64()))})
        return t.filter(
            pa.compute.and_(pa.compute.not_equal(t["op"], pa.scalar("D")),
                            pa.compute.is_valid(t[emb_col]))
        ).select([key_col, emb_col])

    ups = ch.map_batches(_upserts, batch_format="pyarrow", zero_copy_batch=True)
    app = append_ann_index(ups, index_dir)
    v_new = int(app["version"])

    def write_dead(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"path": pa.array([], pa.string())})
        keys = t[key_col].to_pylist()
        is_del = pa.compute.equal(t["op"], pa.scalar("D")).to_numpy(
            zero_copy_only=False)
        mlv = np.where(is_del, np.inf, float(v_new))
        out = pa.table({"key": pa.array(keys),
                        "min_live_ver": pa.array(mlv, pa.float64())})
        name = _hashlib.sha1(
            "\x00".join(sorted(map(str, keys))).encode()).hexdigest()[:16]
        final = os.path.join(index_dir, f"dead-v{v_new:06d}-{name}.parquet")
        tmp = final + f".tmp-{os.getpid()}"
        pq.write_table(out, tmp)
        os.rename(tmp, final)
        return pa.table({"path": pa.array([final], pa.string())})

    n_dead = ch.select_columns([key_col, "op"]).map_batches(
        write_dead, batch_format="pyarrow", batch_size=None).count()

    state, _ = _load_state(index_dir)  # re-read: append bumped version
    state["lake_version"] = cur
    _commit_intents(index_dir, [], state)
    return {"mode": "incremental", "lake_version": cur,
            "n_appended": int(app["n_rows_appended"]),
            "version": v_new, "dead_shards": int(n_dead)}


def maybe_rebuild(eng, index_dir: str, max_fragments: int = 4096,
                  max_dead: int = 100_000) -> dict[str, Any]:
    """The index's compaction policy (callers run it after ``sync``):
    rebuild from a fresh lake scan once the LSM fragment pile or the
    supersede map grows past taste — both are O(churn since last rebuild)
    and a rebuild resets them to O(corpus / n_centroids) and {} while
    retraining the quantizer on current data (same n_centroids /
    sample_size / seed as the live index). No-op otherwise.

    Builds into a SIBLING temp dir and atomically swaps only on success —
    a failed rebuild (e.g. the lake emptied out underneath) leaves the
    old index serving instead of destroying it."""
    frags = fragment_count(index_dir)
    dead = len(load_dead(index_dir))
    if frags <= max_fragments and dead <= max_dead:
        return {"mode": "noop", "fragments": frags, "dead": dead}
    import shutil

    state, _ = _load_state(index_dir)
    tmp = f"{index_dir}.rebuild-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        out = sync_ann_index(eng, tmp, emb_col=state["emb_col"],
                             key_col=state["key_col"],
                             n_centroids=state["n_centroids"],
                             sample_size=state.get("sample_size", 4096),
                             seed=state.get("seed", 29),
                             pq_m=state.get("pq_m"))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    old = f"{index_dir}.old-{os.getpid()}"
    os.rename(index_dir, old)
    os.rename(tmp, index_dir)
    shutil.rmtree(old, ignore_errors=True)
    out.update({"fragments_before": frags, "dead_before": dead})
    return out
