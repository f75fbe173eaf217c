"""Exact-substring (span-level) dedup — `functions/spandedup.py`.

Ground truth is a brute-force O(n·k) reference: enumerate every k-word
window as a TOKEN TUPLE (no hashing), count occurrences, cut losers,
merge spans, slice chars. The distributed op must match it exactly on
every path (broadcast, Bloom+exchange verify, span broadcast, routed
cut), including under a deliberately flooded Bloom."""

import re

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from go_tfdata_ray.functions import spandedup as sp

WORD = re.compile(r"[A-Za-z0-9]+")


def brute(docs, k, keep="first"):
    occ, toks = {}, {}
    for key, txt in docs:
        ms = list(WORD.finditer(txt))
        toks[key] = ms
        ws = [m.group(0).lower() for m in ms]
        for p in range(len(ws) - k + 1):
            occ.setdefault(tuple(ws[p:p + k]), []).append((key, p))
    cuts = {}
    for lst in occ.values():
        if len(lst) < 2:
            continue
        win = min(lst)
        for key, p in lst:
            if keep == "first" and (key, p) == win:
                continue
            cuts.setdefault(key, []).append((p, p + k))
    out, ncw = {}, {}
    for key, txt in docs:
        merged = []
        for s, e in sorted(cuts.get(key, [])):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        ms, res, cur, n = toks[key], [], 0, 0
        for a, b in merged:
            res.append(txt[cur:ms[a].start()])
            cur = ms[b - 1].end()
            n += b - a
        res.append(txt[cur:])
        out[key], ncw[key] = "".join(res), n
    return out, ncw


def mk_ds(docs, key_type=pa.int64()):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], key_type),
        "text": pa.array([t for _, t in docs], pa.string()),
    }))


def run(ds, docs, k, keep="first", **kw):
    got = {r["doc_id"]: (r["text"], r["n_cut_words"])
           for r in sp.exact_substring_dedup(ds, k=k, keep=keep,
                                             **kw).take_all()}
    assert len(got) == len(docs)
    return got


FIXED = [
    (1, "the quick brown fox jumps over the lazy dog today"),
    (2, "prefix words here the quick brown fox jumps over the lazy "
        "dog today and suffix"),
    (3, "the quick brown fox jumps over the lazy dog today"),
    (4, "alpha beta gamma delta alpha beta gamma delta epsilon"),
    (5, "short doc"),
    (6, "Punct, THE QUICK brown Fox! jumps over the lazy dog today?"),
    (7, "totally unique seven words nothing shared anywhere"),
    (8, ""),
]


@pytest.mark.parametrize("keep", ["first", "none"])
def test_fixed_corpus_matches_brute(keep):
    exp_t, exp_n = brute(FIXED, 5, keep)
    got = run(mk_ds(FIXED), FIXED, 5, keep)
    for key, _ in FIXED:
        assert got[key] == (exp_t[key], exp_n[key]), key


def test_large_paths_match_small():
    exp_t, exp_n = brute(FIXED, 5)
    # Bloom verify + routed cut (both thresholds forced to 0)
    for kw in ({"max_broadcast": 0, "max_span_broadcast": 0,
                "num_shards": 4},
               {"max_broadcast": 0, "num_shards": 4},  # span broadcast
               # flooded Bloom: tiny filter → mostly false positives →
               # every window reaches the exact exchange verify
               {"max_broadcast": 0, "max_span_broadcast": 0,
                "num_shards": 4, "n_bits": 1 << 10}):
        got = run(mk_ds(FIXED), FIXED, 5, **kw)
        for key, _ in FIXED:
            assert got[key] == (exp_t[key], exp_n[key]), (key, kw)


def test_random_corpus_matches_brute():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(30)]  # tiny vocab → dense collisions
    docs = [(i, " ".join(rng.choice(vocab, rng.integers(0, 40))))
            for i in range(60)]
    for k in (3, 8):
        exp_t, exp_n = brute(docs, k)
        got = run(mk_ds(docs), docs, k)
        for key, _ in docs:
            assert got[key] == (exp_t[key], exp_n[key]), (key, k)


def test_string_keys_and_winner_order():
    docs = [("b", "one two three four five six"),
            ("a", "one two three four five six"),
            ("c", "unrelated totally different words here now")]
    exp_t, exp_n = brute(docs, 4)  # winner = min key "a"
    got = run(mk_ds(docs, pa.string()), docs, 4)
    assert got["a"] == (docs[1][1], 0)
    assert got["b"] == (exp_t["b"], exp_n["b"]) and got["b"][1] == 6


def test_char_accurate_cut_preserves_surroundings():
    docs = [(1, "AAA: one two three four -- tail!"),
            (2, "BBB; one two three four ## end?")]
    got = run(mk_ds(docs), docs, 4)
    # winner doc 1 untouched; doc 2 loses the 4-word run, punctuation kept
    assert got[1] == (docs[0][1], 0)
    assert got[2] == ("BBB;  ## end?", 4)


def test_no_duplicates_is_identity():
    docs = [(i, f"u{i}a u{i}b u{i}c u{i}d u{i}e") for i in range(10)]
    got = run(mk_ds(docs), docs, 3)
    for key, txt in docs:
        assert got[key] == (txt, 0)


def test_duplicate_spans_report():
    spans = sp.duplicate_spans(mk_ds(FIXED), k=5)
    rows = sorted((r["doc_id"], r["start_word"], r["end_word"])
                  for r in spans.take_all())
    # doc 2: the copied 10-word run sits at words 3..13; doc 3: full copy;
    # doc 6: the run at words 1..11 (leading "Punct" is word 0)
    assert rows == [(2, 3, 13), (3, 0, 10), (6, 1, 11)]
    large = sp.duplicate_spans(mk_ds(FIXED), k=5, max_broadcast=0,
                               num_shards=4)
    assert sorted((r["doc_id"], r["start_word"], r["end_word"])
                  for r in large.take_all()) == rows


def test_self_repeat_keeps_first_copy():
    docs = [(1, "x y z q x y z q x y z q")]
    got = run(mk_ds(docs), docs, 4)
    exp_t, exp_n = brute(docs, 4)
    assert got[1] == (exp_t[1], exp_n[1])
    assert got[1][0].startswith("x y z q")  # first occurrence survives


# ---- content="tokens" (list<int> columns, the CDC lake shape) ----

def brute_tok(docs, k, keep="first"):
    occ = {}
    for key, tl in docs:
        for p in range(len(tl) - k + 1):
            occ.setdefault(tuple(tl[p:p + k]), []).append((key, p))
    cuts = {}
    for lst in occ.values():
        if len(lst) < 2:
            continue
        win = min(lst)
        for key, p in lst:
            if keep == "first" and (key, p) == win:
                continue
            cuts.setdefault(key, []).append((p, p + k))
    out = {}
    for key, tl in docs:
        merged = []
        for s, e in sorted(cuts.get(key, [])):
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        m = np.ones(len(tl), bool)
        n = 0
        for a, b in merged:
            m[a:b] = False
            n += b - a
        out[key] = ([t for t, kk in zip(tl, m) if kk], n)
    return out


def mk_tok_ds(docs):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        "tokens": pa.array([t for _, t in docs], pa.list_(pa.int32())),
    }))


@pytest.mark.parametrize("keep", ["first", "none"])
def test_token_mode_matches_brute(keep):
    rng = np.random.default_rng(3)
    docs = [(i, rng.integers(0, 12, rng.integers(0, 30)).tolist())
            for i in range(40)]
    docs.append((100, list(docs[0][1])))  # full copy
    for k in (3, 6):
        exp = brute_tok(docs, k, keep)
        for kw in ({}, {"max_broadcast": 0, "max_span_broadcast": 0,
                        "num_shards": 4}):
            out = sp.exact_substring_dedup(
                mk_tok_ds(docs), text_col="tokens", k=k, keep=keep,
                content="tokens", **kw)
            got = {r["doc_id"]: (list(r["tokens"]), r["n_cut_words"])
                   for r in out.take_all()}
            assert got == {key: exp[key] for key, _ in docs}, (k, keep, kw)


def test_token_mode_preserves_value_type():
    docs = [(1, [5, 6, 7, 8]), (2, [5, 6, 7, 8]), (3, [9, 10, 11, 12])]
    out = sp.exact_substring_dedup(mk_tok_ds(docs), text_col="tokens",
                                   k=4, content="tokens")
    sch = out.schema()
    assert dict(zip(sch.names, sch.types))["tokens"] == pa.list_(pa.int32())
    got = {r["doc_id"]: list(r["tokens"]) for r in out.take_all()}
    assert got == {1: [5, 6, 7, 8], 2: [], 3: [9, 10, 11, 12]}


def test_prenarrow_matches_default():
    """h1-only pre-narrow round: exact same output as the direct count
    (a dup window's occurrences all share h1 → never missed; FP uniques
    die at the count>=2 fold), on both the broadcast and exchange
    paths, and under a flooded prenarrow Bloom (everything passes →
    degenerates to the direct count)."""
    exp_t, exp_n = brute(FIXED, 5)
    for kw in ({"prenarrow": True},
               {"prenarrow": True, "max_broadcast": 0,
                "max_span_broadcast": 0, "num_shards": 4}):
        got = run(mk_ds(FIXED), FIXED, 5, **kw)
        for key, _ in FIXED:
            assert got[key] == (exp_t[key], exp_n[key]), (key, kw)
    spans = sp.duplicate_spans(mk_ds(FIXED), k=5, prenarrow=True)
    assert sorted((r["doc_id"], r["start_word"], r["end_word"])
                  for r in spans.take_all()) == \
        [(2, 3, 13), (3, 0, 10), (6, 1, 11)]
    # flooded prenarrow Bloom (64 bits): every window is a Bloom hit
    base = sp._dup_table(mk_ds(FIXED), "text", "doc_id", 5, 4)
    floo = sp._dup_table(mk_ds(FIXED), "text", "doc_id", 5, 4,
                         prenarrow=True, prenarrow_bits=64)
    key = lambda d: sorted((r["h1"], r["h2"], r["wkey"], r["wpos"])
                           for r in d.take_all())
    assert key(base) == key(floo)


def test_non_ascii_surroundings_cut_char_accurately():
    """Non-ASCII chars around a duplicated run (the ASCII tokenizer skips
    them) must survive the cut byte-for-byte — offsets always index the
    ORIGINAL string."""
    docs = [(1, "İİİ one two three four İİİ tailone here x"),
            (2, "é— one two three four ±± tailtwo here y")]
    exp_t, exp_n = brute(docs, 4)
    got = run(mk_ds(docs), docs, 4)
    for key, _ in docs:
        assert got[key] == (exp_t[key], exp_n[key]), key
    assert got[2][0].startswith("é— ") and got[2][1] == 4


# ---- contracts: unique keys, input Arrow types, one pass-1 count ----

@pytest.mark.parametrize("kw", [{}, {"max_broadcast": 0,
                                     "max_span_broadcast": 0,
                                     "num_shards": 4}],
                         ids=["broadcast", "exchange"])
def test_duplicate_keys_raise(kw):
    docs = [(1, "one two three four five"), (1, "one two three four five"),
            (2, "six seven eight nine ten")]
    with pytest.raises(Exception, match="unique key column; key 1 "):
        run(mk_ds(docs), docs, 4, **kw)


@pytest.mark.parametrize("content,col,typ,docs", [
    ("text", "text", pa.large_string(),
     [(1, "one two three four"), (2, "one two three four"),
      (3, "six seven eight nine")]),
    ("tokens", "tokens", pa.large_list(pa.int32()),
     [(1, [5, 6, 7, 8]), (2, [5, 6, 7, 8]), (3, [9, 10, 11, 12])]),
], ids=["large_string", "large_list"])
def test_large_arrow_types_survive_every_path(content, col, typ, docs):
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        col: pa.array([v for _, v in docs], typ),
    }))
    for kw in ({}, {"max_broadcast": 0, "max_span_broadcast": 0,
                    "num_shards": 4}):
        out = sp.exact_substring_dedup(ds, text_col=col, k=4,
                                       content=content, **kw)
        rows = {r["doc_id"]: r for r in out.take_all()}
        sch = out.schema()
        assert dict(zip(sch.names, sch.types))[col] == typ, kw
        assert [rows[d]["n_cut_words"] for d in (1, 2, 3)] == [0, 4, 0], kw
        assert len(rows[2][col]) == 0 and len(rows[1][col]) > 0, kw


def test_large_mode_counts_windows_once(monkeypatch):
    calls = []
    orig = sp._dup_table

    def counting(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    monkeypatch.setattr(sp, "_dup_table", counting)
    exp_t, exp_n = brute(FIXED, 5)
    got = run(mk_ds(FIXED), FIXED, 5, max_broadcast=0,
              max_span_broadcast=0, num_shards=4)
    assert len(calls) == 1
    for key, _ in FIXED:
        assert got[key] == (exp_t[key], exp_n[key]), key
