"""Exact-substring (span-level) dedup: cut every k-token span that
occurs more than once corpus-wide — the published ExactSubstr recipe
(Lee et al. 2022, "Deduplicating Training Data Makes Language Models
Better") re-expressed Ray-Data-first.

The paper materializes a suffix array over the concatenated corpus (an
all-to-all sort of every byte). The shape here is cheaper and shuffle-
honest: three streaming passes whose exchanges carry only fixed-width
window fingerprints and word indices — never text:

1. COUNT: per batch, rolling-hash every k-word window (two independent
   64-bit families → an effective 128-bit fingerprint; a false window
   merge needs a 2^-128 collision), combine per batch (distinct window →
   count + first occurrence), then ONE fingerprint-sharded object-store
   exchange folds global counts. Windows with count ≥ 2 form the dup
   table — output-proportional, (h1, h2, winner_key, winner_pos) rows.
   ``prenarrow=True`` (the 100 TB side of the trade) runs an h1-only
   16 B/window counting round first and ships full rows only for
   Bloom-confirmed candidates — see `_dup_table`.
2. FLAG: a second streaming pass recomputes each batch's windows and
   probes the dup table — broadcast sorted arrays under
   ``max_broadcast`` rows, else a Bloom prefilter (no false negatives)
   plus an exact fingerprint-sharded exchange verify of the Bloom hits,
   so nothing dup-proportional ever sits on the driver (the
   `joins.py:anti_join_keys` auto-switch pattern). Flagged windows merge
   into maximal per-doc spans (equal-length sorted windows ⇒ one
   vectorized break scan, no accumulation loop).
3. CUT: spans are removed from the text CHARACTER-accurately (word char
   offsets from the same tokenizer pass), keeping all surrounding
   formatting. ``keep="first"`` protects the globally first occurrence
   of each window (min (key, pos) under the key column's NATIVE order —
   string keys compare lexicographically, so zero-pad numeric-string ids
   if numeric order is intended; self-repeats keep their first copy);
   ``keep="none"`` cuts every occurrence (the paper's default). Spans
   route back to their docs broadcast when few, else by a key-sharded
   exchange where only the AFFECTED rows' payloads move once.

Reference parity: NVIDIA/go-tfdata has no span dedup — beyond-parity
member of the dedup family (`functions/dedup.py` covers whole-doc
exact/near dedup; this covers intra-doc repeated substrings).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..stages.exchange import exchange_group_map
from ..stages.joins import _cached_get
from .decontaminate import rolling_window_hashes
from .dedup import _mix64
from .sketch import bloom_contains, build_bloom

__all__ = ["duplicate_spans", "exact_substring_dedup"]

_WORD_RX = re.compile(r"[A-Za-z0-9]+")
_M1 = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd multiplier
_M2 = np.uint64(0xC2B2AE3D27D4EB4F)  # xxhash64 prime-2 — 2nd family


def _tokenize(texts: np.ndarray):
    """Per-doc word tokens with exact char offsets into the ORIGINAL
    string (tokens are lowercased individually — lowercasing the whole
    text first could shift offsets for multi-char case folds)."""
    words: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    counts = np.empty(len(texts), np.int64)
    for i, txt in enumerate(texts):
        s = str(txt)
        n0 = len(words)
        for m in _WORD_RX.finditer(s):
            words.append(m.group(0).lower())
            starts.append(m.start())
            ends.append(m.end())
        counts[i] = len(words) - n0
    return (words, counts,
            np.asarray(starts, np.int64), np.asarray(ends, np.int64))


def _extract(t: pa.Table, col: str, content: str):
    """Unified element extraction: (elem_hashes uint64 flat, counts, aux).
    ``content="text"`` → regex word tokens, aux = (char starts, char ends)
    for character-accurate cuts; ``content="tokens"`` → a non-null
    ``list<int>`` column (the CDC lake's token arrays), elements hashed
    with the splitmix64 finalizer, aux = the flat value array + its arrow
    value type (cuts slice the list)."""
    if content == "tokens":
        lc = t[col]
        if isinstance(lc, pa.ChunkedArray):
            lc = lc.combine_chunks()
        counts = np.asarray(
            pc.list_value_length(lc).to_numpy(zero_copy_only=False),
            dtype=np.int64)
        flat = lc.flatten().to_numpy(zero_copy_only=False)
        eh = _mix64(flat.astype(np.uint64))
        return eh, counts, (flat, lc.type.value_type)
    texts = t[col].to_numpy(zero_copy_only=False)
    words, counts, ws, we = _tokenize(texts)
    if not words:
        return np.empty(0, np.uint64), counts, (ws, we)
    eh = pd.util.hash_array(
        np.array(words, dtype=object), categorize=False
    ).astype(np.uint64)
    return eh, counts, (ws, we)


def _window_fp(eh: np.ndarray, counts: np.ndarray, k: int):
    """(h1, h2, doc_idx, pos) for every k-element window inside one doc,
    from the flat per-element hash array."""
    if len(eh) < k:
        z = np.empty(0, np.uint64)
        return z, z, np.empty(0, np.int64), np.empty(0, np.int64)
    h1, doc, pos = rolling_window_hashes(eh, counts, k, _M1)
    h2, _, _ = rolling_window_hashes(eh, counts, k, _M2)
    return h1, h2, doc, pos


def _key_hash(ks: np.ndarray) -> np.ndarray:
    """Stable uint64 hash of a key array for sharding / keys-Blooms —
    numeric keys hash natively (fully vectorized), object (string) keys
    via the process-stable siphash. Every build/probe site shares this
    one function, so the hash families always agree."""
    return pd.util.hash_array(np.asarray(ks),
                              categorize=False).astype(np.uint64)


def _pair_lookup(H1: np.ndarray, H2: np.ndarray,
                 q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Index of each (q1, q2) pair in the (H1, H2) table sorted by
    ``lexsort((H2, H1))`` — -1 on miss. Vectorized for the dominant
    unique-h1 case; h1 ties (64-bit hash collisions between DIFFERENT
    windows) fall to a per-tie binary search."""
    idx = np.full(len(q1), -1, np.int64)
    if len(H1) == 0 or len(q1) == 0:
        return idx
    lo = np.searchsorted(H1, q1, "left")
    hi = np.searchsorted(H1, q1, "right")
    width = hi - lo
    one = width == 1
    loc = np.minimum(lo, len(H1) - 1)
    m = one & (H2[loc] == q2)
    idx[m] = lo[m]
    for j in np.flatnonzero(width > 1):
        sub = H2[lo[j]:hi[j]]  # sorted within equal h1 by construction
        p = int(np.searchsorted(sub, q2[j]))
        if p < len(sub) and sub[p] == q2[j]:
            idx[j] = lo[j] + p
    return idx


def _merge_windows(doc_key: np.ndarray, pos: np.ndarray, k: int):
    """Merge flagged k-windows into maximal per-doc spans. Windows all
    have length k, so after a (key, pos) sort both starts AND ends are
    nondecreasing within a doc — a span break is exactly
    ``key change OR start > previous end`` (one vectorized compare).
    Returns (key, start_word, end_word) arrays, end exclusive."""
    if len(pos) == 0:
        return doc_key[:0], pos[:0], pos[:0]
    order = np.lexsort((pos, doc_key))
    dk, s = doc_key[order], pos[order]
    e = s + k
    brk = np.ones(len(s), bool)
    if len(s) > 1:
        brk[1:] = (dk[1:] != dk[:-1]) | (s[1:] > e[:-1])
    bi = np.flatnonzero(brk)
    ends = e[np.append(bi[1:] - 1, len(e) - 1)]
    return dk[bi], s[bi], ends


def _cut_text(s: str, wstarts: np.ndarray, wends: np.ndarray,
              spans: list[tuple[int, int]]) -> str:
    """Remove char ranges [start-of-word a, end-of-word b-1) for each
    word-index span [a, b); spans are disjoint and sorted."""
    out = []
    cur = 0
    for a, b in spans:
        out.append(s[cur:int(wstarts[a])])
        cur = int(wends[b - 1])
    out.append(s[cur:])
    return "".join(out)


def _col_type(ds: rd.Dataset, col: str) -> pa.DataType:
    """Arrow type of ``col`` from a Dataset-level schema (Ray wraps the
    pyarrow schema; names/types are exposed on the wrapper)."""
    sch = ds.schema()
    return dict(zip(sch.names, sch.types))[col]


def _empty_partial(key_type: pa.DataType) -> pa.Table:
    return pa.table({
        "h1": pa.array([], pa.uint64()), "h2": pa.array([], pa.uint64()),
        "cnt": pa.array([], pa.int64()),
        "wkey": pa.array([], key_type), "wpos": pa.array([], pa.int64()),
        "_shard": pa.array([], pa.int64()),
    })


def _dup_table(ds: rd.Dataset, text_col: str, key_col: str, k: int,
               num_shards: int, content: str = "text",
               prenarrow: bool = False,
               prenarrow_bits: int | None = None) -> rd.Dataset:
    """Pass 1: global window counts + first occurrence. Per-batch
    combiner emits one row per DISTINCT window in the batch (count +
    batch-local winner), so the exchange carries ~40 B per distinct
    window — fingerprints and keys, never text. The fold keeps windows
    with global count ≥ 2 only, making the result output-proportional.

    ``prenarrow=True`` inserts an h1-only counting round first (16 B per
    distinct window — no h2/key/pos payload), folds it to the h1 values
    with global count ≥ 2, and broadcasts them as a Bloom; the full
    partial round then emits rows ONLY for Bloom-hit windows. Exact: a
    duplicated window's every occurrence shares h1 so all of them pass
    the Bloom (no false negative is possible), and a false-positive
    unique window enters the fold with count 1 and is dropped there.
    Trades one extra streaming hash pass over the corpus for shipping
    full rows only at dup-proportional volume — the right side of the
    trade once the corpus outgrows the cluster's exchange bandwidth."""
    bloom_ref = None
    if prenarrow:
        def p0(t: pa.Table) -> pa.Table:
            eh, counts, _aux = _extract(t, text_col, content)
            h1, _, _ = (rolling_window_hashes(eh, counts, k, _M1)
                        if len(eh) >= k
                        else (np.empty(0, np.uint64),) * 3)
            u, c = np.unique(h1, return_counts=True)
            return pa.table({
                "h1": pa.array(u), "cnt": pa.array(c.astype(np.int64)),
                "_shard": pa.array((u % np.uint64(num_shards))
                                   .astype(np.int64)),
            })

        def f0(t: pa.Table) -> pa.Table:
            h1 = t["h1"].to_numpy(zero_copy_only=False)
            cnt = t["cnt"].to_numpy(zero_copy_only=False)
            order = np.argsort(h1, kind="stable")
            h1s = h1[order]
            new = np.ones(len(h1s), bool)
            new[1:] = h1s[1:] != h1s[:-1]
            gi = np.flatnonzero(new)
            tot = np.add.reduceat(cnt[order], gi)
            return pa.table({"h1": pa.array(h1s[gi[tot >= 2]])})

        cand = exchange_group_map(
            ds.map_batches(p0, batch_format="pyarrow",
                           zero_copy_batch=True),
            f0, num_shards, shard_col="_shard",
            batch_format="pyarrow").materialize()
        nc = cand.count()
        n_bits = prenarrow_bits or (
            1 << min(33, max(20, int(np.ceil(np.log2(16 * max(nc, 1)))))))
        bloom_ref = ray.put(build_bloom(cand, "h1", n_bits=n_bits))

    def partial(t: pa.Table) -> pa.Table:
        key_type = t.schema.field(key_col).type
        keys = t[key_col].to_numpy(zero_copy_only=False)
        eh, counts, _aux = _extract(t, text_col, content)
        h1, h2, doc, pos = _window_fp(eh, counts, k)
        if bloom_ref is not None and len(h1):
            hit = bloom_contains(_cached_get(bloom_ref), h1)
            h1, h2, doc, pos = h1[hit], h2[hit], doc[hit], pos[hit]
        if len(h1) == 0:
            return _empty_partial(key_type)
        kd = keys[doc]
        order = np.lexsort((pos, kd, h2, h1))
        h1s, h2s, ks, ps = h1[order], h2[order], kd[order], pos[order]
        new = np.ones(len(h1s), bool)
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        gi = np.flatnonzero(new)
        cnt = np.diff(np.append(gi, len(h1s)))
        return pa.table({
            "h1": pa.array(h1s[gi]), "h2": pa.array(h2s[gi]),
            "cnt": pa.array(cnt.astype(np.int64)),
            "wkey": pa.array(ks[gi], key_type),
            "wpos": pa.array(ps[gi]),
            "_shard": pa.array((h1s[gi] % np.uint64(num_shards))
                               .astype(np.int64)),
        })

    def fold(t: pa.Table) -> pa.Table:
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        h2 = t["h2"].to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        wk = t["wkey"].to_numpy(zero_copy_only=False)
        wp = t["wpos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((wp, wk, h2, h1))
        h1s, h2s = h1[order], h2[order]
        new = np.ones(len(h1s), bool)
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        gi = np.flatnonzero(new)
        tot = np.add.reduceat(cnt[order], gi)
        keep = tot >= 2
        gi = gi[keep]
        return pa.table({
            "h1": pa.array(h1s[gi]), "h2": pa.array(h2s[gi]),
            "wkey": pa.array(wk[order][gi],
                             t.schema.field("wkey").type),
            "wpos": pa.array(wp[order][gi]),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    return exchange_group_map(parts, fold, num_shards,
                              shard_col="_shard", batch_format="pyarrow")


def _flag_batch(t: pa.Table, text_col: str, key_col: str, k: int,
                D: dict[str, Any], keep: str, content: str = "text"):
    """Per-batch window flagging against broadcast dup arrays →
    (keys, starts, ends) of merged cut spans plus the extraction
    (counts, aux) reused by the inline cut path."""
    keys = t[key_col].to_numpy(zero_copy_only=False)
    eh, counts, aux = _extract(t, text_col, content)
    h1, h2, doc, pos = _window_fp(eh, counts, k)
    empty = (keys[:0], np.empty(0, np.int64), np.empty(0, np.int64))
    if len(h1) == 0:
        return (*empty, counts, aux, keys)
    idx = _pair_lookup(D["h1"], D["h2"], h1, h2)
    m = idx >= 0
    if keep == "first":
        mi = idx[m]
        winner = (D["wkey"][mi] == keys[doc[m]]) & (D["wpos"][mi] == pos[m])
        cut = np.flatnonzero(m)[~winner]
    else:
        cut = np.flatnonzero(m)
    ck, cs, ce = _merge_windows(keys[doc[cut]], pos[cut], k)
    return ck, cs, ce, counts, aux, keys


def duplicate_spans(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 20,
    keep: str = "first",
    num_shards: int = 64,
    max_broadcast: int = 500_000,
    n_bits: int | None = None,
    content: str = "text",
    prenarrow: bool = False,
) -> rd.Dataset:
    """Maximal duplicated-span report: (key_col, start_word, end_word)
    for every span the dedup would cut (``keep="first"`` excludes each
    window's globally first occurrence — min (key, pos); ``keep="none"``
    reports every occurrence). ``end_word`` exclusive, word indices from
    the internal ``[A-Za-z0-9]+`` case-folded tokenizer.

    Scale switch on the dup-table size: at or under ``max_broadcast``
    windows the sorted fingerprint arrays broadcast once (``ray.put``,
    ~40 B/row) and flagging is one streaming pass; above it a Bloom
    prefilter broadcasts instead (no false negatives — a missed window
    is impossible), Bloom HITS alone are verified exactly by a
    fingerprint-sharded exchange against the dup table, and verified
    windows merge per doc under a key-sharded exchange. Nothing
    dup-proportional on the driver in the large mode. ``n_bits``
    overrides the Bloom size (tests force FP floods).

    ``key_col`` must be unique per row: spans are addressed by key and
    the first-occurrence winner is a (key, pos) pair."""
    assert keep in ("first", "none")
    assert content in ("text", "tokens")
    dup = _dup_table(ds, text_col, key_col, k, num_shards,
                     content, prenarrow=prenarrow).materialize()
    return _spans_from_dup(ds, dup, text_col, key_col, k, keep, num_shards,
                           max_broadcast, n_bits, content)


def _spans_from_dup(ds: rd.Dataset, dup: rd.Dataset, text_col: str,
                    key_col: str, k: int, keep: str, num_shards: int,
                    max_broadcast: int, n_bits: int | None,
                    content: str) -> rd.Dataset:
    """Passes 2+3 of `duplicate_spans` over a materialized dup table
    (pass 1), so a caller that already holds the table never recounts."""
    nd = dup.count()
    key_type = _col_type(ds, key_col)

    def _span_tbl(ck, cs, ce) -> pa.Table:
        return pa.table({
            key_col: pa.array(ck, key_type),
            "start_word": pa.array(cs.astype(np.int64)),
            "end_word": pa.array(ce.astype(np.int64)),
        })

    if nd <= max_broadcast:
        D = _drain_dup(dup)
        ref = ray.put(D)

        def flag(t: pa.Table) -> pa.Table:
            ck, cs, ce, *_ = _flag_batch(t, text_col, key_col, k,
                                         _cached_get(ref), keep, content)
            return _span_tbl(ck, cs, ce)

        return ds.map_batches(flag, batch_format="pyarrow",
                              zero_copy_batch=True)

    # ---- large mode: Bloom prefilter + exchange verify ----
    def mixed(t: pa.Table) -> pa.Table:
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        h2 = t["h2"].to_numpy(zero_copy_only=False)
        return pa.table({"m": pa.array(h1 ^ _mix64(h2))})

    if n_bits is None:
        n_bits = 1 << min(33, max(20, int(np.ceil(np.log2(16 * nd)))))
    bloom = build_bloom(dup.map_batches(mixed, batch_format="pyarrow"),
                        "m", n_bits=n_bits)
    bref = ray.put(bloom)

    def cands(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        eh, counts, _aux = _extract(t, text_col, content)
        h1, h2, doc, pos = _window_fp(eh, counts, k)
        hit = (bloom_contains(_cached_get(bref), h1 ^ _mix64(h2))
               if len(h1) else np.zeros(0, bool))
        return pa.table({
            "h1": pa.array(h1[hit]), "h2": pa.array(h2[hit]),
            "wkey": pa.array(keys[doc[hit]], key_type),
            "wpos": pa.array(pos[hit]),
            "_side": pa.array(np.ones(int(hit.sum()), np.int8)),
            "_shard": pa.array((h1[hit] % np.uint64(num_shards))
                               .astype(np.int64)),
        })

    def tag_dup(t: pa.Table) -> pa.Table:
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        return pa.table({
            "h1": t["h1"], "h2": t["h2"],
            "wkey": t["wkey"], "wpos": t["wpos"],
            "_side": pa.array(np.zeros(len(t), np.int8)),
            "_shard": pa.array((h1 % np.uint64(num_shards))
                               .astype(np.int64)),
        })

    cand_ds = ds.map_batches(cands, batch_format="pyarrow",
                             zero_copy_batch=True)
    both = dup.map_batches(tag_dup, batch_format="pyarrow").union(cand_ds)

    def verify(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        h1 = t["h1"].to_numpy(zero_copy_only=False)
        h2 = t["h2"].to_numpy(zero_copy_only=False)
        wk = t["wkey"].to_numpy(zero_copy_only=False)
        wp = t["wpos"].to_numpy(zero_copy_only=False)
        dmask = side == 0
        order = np.lexsort((h2[dmask], h1[dmask]))
        H1, H2 = h1[dmask][order], h2[dmask][order]
        WK, WP = wk[dmask][order], wp[dmask][order]
        q = np.flatnonzero(~dmask)
        idx = _pair_lookup(H1, H2, h1[q], h2[q])
        m = idx >= 0
        if keep == "first":
            mi = idx[m]
            winner = (WK[mi] == wk[q][m]) & (WP[mi] == wp[q][m])
            sel = q[m][~winner]
        else:
            sel = q[m]
        ks = wk[sel]
        kh = _key_hash(ks)
        return pa.table({
            key_col: pa.array(ks, key_type),
            "wpos": pa.array(wp[sel]),
            "_kshard": pa.array((kh % np.uint64(num_shards))
                                .astype(np.int64)),
        })

    wins = exchange_group_map(both, verify, num_shards,
                              shard_col="_shard", batch_format="pyarrow")

    def merge(t: pa.Table) -> pa.Table:
        ck, cs, ce = _merge_windows(
            t[key_col].to_numpy(zero_copy_only=False),
            t["wpos"].to_numpy(zero_copy_only=False), k)
        return _span_tbl(ck, cs, ce)

    return exchange_group_map(wins, merge, num_shards,
                              shard_col="_kshard", batch_format="pyarrow")


def _drain_dup(dup: rd.Dataset) -> dict[str, Any]:
    """Small-mode driver fold: sorted-by-(h1, h2) parallel arrays."""
    parts = [b for b in dup.iter_batches(batch_format="pyarrow")
             if b.num_rows]
    if not parts:
        z = np.empty(0, np.uint64)
        return {"h1": z, "h2": z, "wkey": np.empty(0, object),
                "wpos": np.empty(0, np.int64)}
    t = pa.concat_tables(parts)
    h1 = t["h1"].to_numpy(zero_copy_only=False)
    h2 = t["h2"].to_numpy(zero_copy_only=False)
    wk = t["wkey"].to_numpy(zero_copy_only=False)
    wp = t["wpos"].to_numpy(zero_copy_only=False)
    order = np.lexsort((h2, h1))
    return {"h1": h1[order], "h2": h2[order],
            "wkey": wk[order], "wpos": wp[order]}


def exact_substring_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 20,
    keep: str = "first",
    num_shards: int = 64,
    max_broadcast: int = 500_000,
    n_bits: int | None = None,
    max_span_broadcast: int | None = None,
    content: str = "text",
    prenarrow: bool = False,
) -> rd.Dataset:
    """Corpus rewrite: every duplicated k-window span is cut from the
    text character-accurately (surrounding whitespace/punctuation kept);
    all input columns pass through plus ``n_cut_words`` per row.
    ``content="tokens"`` operates on a non-null ``list<int>`` column
    instead (the CDC lake's token arrays): spans are cut by slicing the
    list — the engine's ``dedup_lake(method="span")`` path.

    Fast path (dup table ≤ ``max_broadcast``): flag + merge + cut fuse
    into ONE streaming pass over the corpus — no shuffle at all. Large
    path: the span report is computed distributively
    (`duplicate_spans`), then routed back — broadcast when the report is
    small, else affected rows alone move through one key-sharded
    exchange (an affected payload moves exactly once; clean rows stream
    through untouched, identified by a keys-Bloom whose false positives
    only route an extra clean row, never corrupt one). Pass 1 runs once
    on either path.

    ``key_col`` must be unique per row: cuts are addressed by key, so
    rows that share a key raise ``ValueError`` when they are rewritten
    together. The rewritten column keeps the input's Arrow type
    (``large_string`` / ``large_list`` included)."""
    assert keep in ("first", "none")
    assert content in ("text", "tokens")
    dup = _dup_table(ds, text_col, key_col, k, num_shards,
                     content, prenarrow=prenarrow).materialize()
    nd = dup.count()

    if nd <= max_broadcast:
        D = _drain_dup(dup)
        ref = ray.put(D)

        def cut_inline(t: pa.Table) -> pa.Table:
            ck, cs, ce, counts, aux, keys = _flag_batch(
                t, text_col, key_col, k, _cached_get(ref), keep, content)
            return _apply_spans(t, text_col, ck, cs, ce, counts, aux,
                                keys, content)

        return ds.map_batches(cut_inline, batch_format="pyarrow",
                              zero_copy_batch=True)

    spans = _spans_from_dup(ds, dup, text_col, key_col, k, keep,
                            num_shards, max_broadcast, n_bits,
                            content).materialize()
    return _route_and_cut(ds, spans, text_col, key_col, num_shards,
                          max_span_broadcast or max_broadcast, content)


def _apply_spans(t: pa.Table, text_col: str,
                 ck, cs, ce, counts, aux, keys,
                 content: str = "text") -> pa.Table:
    """Rewrite a batch given merged spans for (a superset of) its rows.
    text mode: character-accurate cuts via the tokenizer offsets in
    ``aux``; tokens mode: one vectorized boolean mask over the flat
    value array rebuilds the list column (offsets from kept counts)."""
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    by_row: dict[int, list[tuple[int, int]]] = {}
    rowmap = {v: i for i, v in enumerate(keys.tolist())}
    if len(rowmap) < len(keys):
        dup_key = next(v for v, c in Counter(keys.tolist()).items() if c > 1)
        raise ValueError(
            f"span dedup needs a unique key column; key {dup_key!r} "
            "appears on more than one row")
    ftype = t.schema.field(text_col).type
    for kv, a, b in zip(np.asarray(ck).tolist(), cs, ce):
        r = rowmap.get(kv)
        if r is not None:
            by_row.setdefault(r, []).append((int(a), int(b)))
    n_cut = np.zeros(len(t), np.int64)
    if content == "tokens":
        flat, vtype = aux
        mask = np.ones(len(flat), bool)
        for r, sp in by_row.items():
            o = offs[r]
            for a, b in sp:
                mask[o + a:o + b] = False
                n_cut[r] += b - a
        kept = counts - n_cut
        new_offs = np.concatenate([np.zeros(1, np.int64),
                                   np.cumsum(kept)])
        large = pa.types.is_large_list(ftype)
        col = (pa.LargeListArray if large else pa.ListArray).from_arrays(
            pa.array(new_offs, pa.int64() if large else pa.int32()),
            pa.array(flat[mask], vtype), type=ftype)
    else:
        wstarts, wends = aux
        texts = t[text_col].to_numpy(zero_copy_only=False)
        new_texts = list(texts)
        for r, sp in by_row.items():
            sp.sort()
            o = offs[r]
            new_texts[r] = _cut_text(
                str(texts[r]), wstarts[o:offs[r + 1]],
                wends[o:offs[r + 1]], sp)
            n_cut[r] = sum(b - a for a, b in sp)
        col = pa.array([str(x) for x in new_texts], ftype)
    out = t.set_column(t.column_names.index(text_col), text_col, col)
    return out.append_column("n_cut_words", pa.array(n_cut))


def _route_and_cut(ds: rd.Dataset, spans: rd.Dataset, text_col: str,
                   key_col: str, num_shards: int,
                   max_span_broadcast: int,
                   content: str = "text") -> rd.Dataset:
    """Apply a span report to the corpus. Broadcast the report when
    small; otherwise Bloom-split the corpus (clean rows pass through
    with n_cut_words=0) and exchange ONLY affected rows + spans by key
    shard — the minimal payload movement for a rewrite."""
    key_type = _col_type(ds, key_col)
    ns = spans.count()

    def cut_rows(t: pa.Table, sp_by_key: dict) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        _eh, counts, aux = _extract(t, text_col, content)
        ck, cs, ce = [], [], []
        for kv in set(keys.tolist()):
            for a, b in sp_by_key.get(kv, ()):
                ck.append(kv)
                cs.append(a)
                ce.append(b)
        return _apply_spans(
            t, text_col,
            np.array(ck, dtype=object), np.array(cs, np.int64),
            np.array(ce, np.int64), counts, aux, keys, content)

    if ns <= max_span_broadcast:
        D: dict[Any, list[tuple[int, int]]] = {}
        for b in spans.iter_batches(batch_format="pyarrow"):
            kk = b[key_col].to_numpy(zero_copy_only=False).tolist()
            ss = b["start_word"].to_numpy(zero_copy_only=False)
            ee = b["end_word"].to_numpy(zero_copy_only=False)
            for i in range(len(kk)):
                D.setdefault(kk[i], []).append((int(ss[i]), int(ee[i])))
        ref = ray.put(D)

        def apply_small(t: pa.Table) -> pa.Table:
            return cut_rows(t, _cached_get(ref))

        return ds.map_batches(apply_small, batch_format="pyarrow",
                              zero_copy_batch=True)

    # keys-Bloom split: clean rows bypass, affected rows exchange once
    def key_hash_tbl(t: pa.Table) -> pa.Table:
        ks = t[key_col].to_numpy(zero_copy_only=False)
        kh = _key_hash(ks)
        return pa.table({"m": pa.array(kh)})

    n_bits = 1 << min(33, max(20, int(np.ceil(np.log2(16 * ns)))))
    kbloom = build_bloom(
        spans.map_batches(key_hash_tbl, batch_format="pyarrow"),
        "m", n_bits=n_bits)
    kbref = ray.put(kbloom)

    def _key_hit(t: pa.Table) -> np.ndarray:
        ks = t[key_col].to_numpy(zero_copy_only=False)
        kh = _key_hash(ks)
        return bloom_contains(_cached_get(kbref), kh)

    def clean(t: pa.Table) -> pa.Table:
        out = t.filter(pa.array(~_key_hit(t)))
        return out.append_column(
            "n_cut_words", pa.array(np.zeros(len(out), np.int64)))

    # one canonical union schema (data cols ∪ span cols, null-padded) so
    # the two exchange sides concat without schema promotion surprises
    data_cols = [c for c in ds.schema().names]
    sch = ds.schema()
    types = dict(zip(sch.names, sch.types))
    types["start_word"] = pa.int64()
    types["end_word"] = pa.int64()
    ucols = data_cols + ["start_word", "end_word"]

    def _pad(t: pa.Table, side: int) -> pa.Table:
        n = len(t)
        arrs = [
            t[c] if c in t.column_names else pa.nulls(n, types[c])
            for c in ucols
        ]
        ks = t[key_col].to_numpy(zero_copy_only=False)
        kh = _key_hash(ks)
        arrs += [
            pa.array((kh % np.uint64(num_shards)).astype(np.int64)),
            pa.array(np.full(n, side, np.int8)),
        ]
        return pa.table(dict(zip(ucols + ["_kshard", "_side"], arrs)))

    def hit_rows(t: pa.Table) -> pa.Table:
        return _pad(t.filter(pa.array(_key_hit(t))), 1)

    def span_rows(t: pa.Table) -> pa.Table:
        return _pad(t, 0)

    clean_ds = ds.map_batches(clean, batch_format="pyarrow",
                              zero_copy_batch=True)
    both = spans.map_batches(span_rows, batch_format="pyarrow").union(
        ds.map_batches(hit_rows, batch_format="pyarrow",
                       zero_copy_batch=True))

    def apply_shard(t: pa.Table) -> pa.Table:
        side = t["_side"].to_numpy(zero_copy_only=False)
        sp = t.filter(pa.array(side == 0))
        rows = t.filter(pa.array(side == 1)).select(data_cols)
        D: dict[Any, list[tuple[int, int]]] = {}
        kk = sp[key_col].to_numpy(zero_copy_only=False).tolist()
        ss = sp["start_word"].to_numpy(zero_copy_only=False)
        ee = sp["end_word"].to_numpy(zero_copy_only=False)
        for i in range(len(kk)):
            D.setdefault(kk[i], []).append((int(ss[i]), int(ee[i])))
        return cut_rows(rows, D)

    cut_ds = exchange_group_map(both, apply_shard, num_shards,
                                shard_col="_kshard",
                                batch_format="pyarrow")
    return clean_ds.union(cut_ds)
