"""Text-analysis stages for large-scale training-data pipelines.

All stages are vectorized ``map_batches`` callables; the stateful ones
(compiled regexes, marker-word tables) are callable CLASSES whose setup
runs once — the Ray analog of the reference's stateful reader-wrapping
stages (`/root/reference/README.md:67-117`).

State-size-aware scheduling: these stages hold LIGHT state (a compiled
regex, a marker table — microseconds to build), so the dataset helpers run
them as plain TASKS with a per-worker-process construction cache
(``_worker_cached``) instead of a dedicated actor pool — Ray reuses worker
processes, so the state still builds once per worker, while a per-query
actor pool would pay ~1.5 s of spin-up latency per stage per session
(measured; compute for the whole sf0.1 stage is ~0.2 s). Actor pools
remain the right tool for HEAVY state (models, broadcast query matrices)
— see ``functions/ann.py``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

_PUNCT = ".,!?;:"

# per-worker-process stage cache: (cls, args) → constructed instance
_STAGE_CACHE: dict = {}


def _worker_cached(cls, *args):
    """A plain-task map_batches fn that constructs ``cls(*args)`` once per
    worker process and reuses it across tasks and queries."""

    def fn(batch):
        key = (cls.__qualname__, args)
        inst = _STAGE_CACHE.get(key)
        if inst is None:
            inst = _STAGE_CACHE.setdefault(key, cls(*args))
        return inst(batch)

    fn.__name__ = cls.__name__
    return fn


def doc_stats_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Exact integer per-doc counters (n_chars / n_spaces / n_punct) —
    quality-scoring raw features, SQL-reproducible for the oracle."""
    s = t[text_col]
    n_chars = pc.utf8_length(s).cast(pa.int64())
    no_space = pc.replace_substring_regex(s, " ", "")
    n_spaces = pc.subtract(n_chars, pc.utf8_length(no_space).cast(pa.int64()))
    no_punct = pc.replace_substring_regex(s, f"[{_PUNCT}]", "")
    n_punct = pc.subtract(n_chars, pc.utf8_length(no_punct).cast(pa.int64()))
    out = t.select([c for c in t.column_names if c != text_col])
    out = out.append_column("n_chars", n_chars)
    out = out.append_column("n_spaces", n_spaces)
    return out.append_column("n_punct", n_punct)


class TokenCounter:
    """Whitespace + BPE-ish regex token counting (actor pool: regex compiled
    once per actor)."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.ws = re.compile(r"\S+")
        # GPT-2-style pretokenizer shape: word pieces, numbers, punctuation runs
        self.bpe = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        s = df[self.text_col].astype(str)
        df = df.drop(columns=[self.text_col])
        df["n_ws_tokens"] = s.str.count(self.ws).astype("int64")
        df["n_bpe_tokens"] = s.str.count(self.bpe).astype("int64")
        return df


class QualityScorer:
    """Composite quality score from length / punctuation / stopword ratios —
    deterministic heuristic, weights fixed. Fully vectorized (stopword hits
    counted with one compiled alternation regex, no per-row set lookups).
    Emits the integer raw features (n_words, n_stop — SQL-reproducible, used
    by the driver oracle) alongside the float ratios/score."""

    STOP = ("the", "a", "of", "and", "to", "in", "is", "for")

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.word = re.compile(r"[a-z]+")
        # \b-bounded alternation == membership of maximal [a-z]+ runs in STOP
        self.stop_rx = re.compile(r"\b(?:" + "|".join(self.STOP) + r")\b")

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        s = df[self.text_col].astype(str)
        low = s.str.lower()
        n_chars = s.str.len().clip(lower=1)
        n_words_raw = low.str.count(self.word).astype("int64")
        n_stop = low.str.count(self.stop_rx).astype("int64")
        n_words = n_words_raw.clip(lower=1)
        stop_ratio = n_stop / n_words
        punct_ratio = s.str.count(f"[{_PUNCT}]") / n_chars
        mean_word_len = n_chars / n_words
        score = (
            0.4 * np.clip(n_chars / 500.0, 0, 1)
            + 0.3 * np.clip(stop_ratio / 0.4, 0, 1)
            + 0.3 * (1.0 - np.clip(np.abs(mean_word_len - 5.0) / 5.0, 0, 1))
        )
        out = df.drop(columns=[self.text_col]).copy()
        out["n_words"] = n_words_raw
        out["n_stop"] = n_stop
        out["stop_ratio"] = stop_ratio
        out["punct_ratio"] = punct_ratio
        out["quality"] = score
        return out


class LangId:
    """Marker-word n-gram heuristic language ID over a fixed language table
    (no external models in this container). Ties break alphabetically; docs
    with zero marker hits get 'und'."""

    MARKERS = {
        "en": ("the", "and", "of", "is", "with", "for"),
        "de": ("der", "und", "die", "nicht", "ist", "das"),
        "fr": ("le", "la", "et", "les", "des", "est"),
        "es": ("el", "la", "los", "que", "es", "una"),
    }

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.pats = {
            lang: re.compile(r"\b(?:" + "|".join(ws) + r")\b")
            for lang, ws in sorted(self.MARKERS.items())
        }

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        s = df[self.text_col].astype(str).str.lower()
        counts = pd.DataFrame({lang: s.str.count(p) for lang, p in self.pats.items()})
        best = counts.idxmax(axis=1)
        best[counts.max(axis=1) == 0] = "und"
        out = df.drop(columns=[self.text_col]).copy()
        out["lang_pred"] = best.values
        return out


class Fingerprinter:
    """Winnowing-style document fingerprint: rolling Rabin-Karp hashes over
    byte k-grams, fingerprint = min hash (1-perm MinHash). Vectorized
    across the WHOLE batch: all docs' bytes are flattened into one array
    with per-doc offsets (the same flattened-offsets shape as
    ``Tokenizer.__call__``); the full-document hash is a power-table
    weighted segment sum, window hashes are k strided adds over global
    window starts, per-doc minima come from one ``minimum.reduceat``.
    All arithmetic is uint64 wraparound, bit-identical to the per-doc
    reference path (``_fp``, kept for tests)."""

    _P = np.uint64(1000003)

    def __init__(self, text_col: str = "text", k: int = 8):
        self.text_col = text_col
        self.k = k
        self.pows = (np.uint64(1000003) ** np.arange(k, dtype=np.uint64)).astype(np.uint64)

    def _fp(self, text: str) -> tuple[int, int]:
        """Single-doc reference implementation (testing oracle only)."""
        b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        if len(b) < self.k:
            b = np.pad(b, (0, self.k - len(b)), constant_values=0)
        # full-document rolling (Horner) hash, uint64 wraparound arithmetic
        full = (b.astype(np.uint64) * (np.uint64(1000003) ** np.arange(len(b) - 1, -1, -1,
                                                                       dtype=np.uint64))).sum()
        win = np.lib.stride_tricks.sliding_window_view(b, self.k).astype(np.uint64)
        h = (win * self.pows).sum(axis=1, dtype=np.uint64)
        return int(full), int(h.min())

    def batch_fp(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        k = self.k
        if not texts:
            e = np.zeros(0, dtype=np.uint64)
            return e, e.copy()
        encs = []
        lens = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):  # encoding only — all math is batch-wide
            e = t.encode("utf-8")
            if len(e) < k:
                e = e + b"\x00" * (k - len(e))
            encs.append(e)
            lens[i] = len(e)
        b_all = np.frombuffer(b"".join(encs), dtype=np.uint8).astype(np.uint64)
        n_total = len(b_all)
        doc_off = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(lens, out=doc_off[1:])
        # P^0..P^(maxlen-1), wrapping mod 2^64
        maxlen = int(lens.max())
        powtab = np.ones(maxlen, dtype=np.uint64)
        if maxlen > 1:
            np.multiply.accumulate(np.full(maxlen - 1, self._P, dtype=np.uint64),
                                   out=powtab[1:])
        # full hash: Σ_j b[j] · P^(L-1-j) per doc, via cumsum-difference
        ends = np.repeat(doc_off[1:], lens)
        terms = b_all * powtab[ends - 1 - np.arange(n_total)]
        cs = np.zeros(n_total + 1, dtype=np.uint64)
        np.cumsum(terms, out=cs[1:])
        full = cs[doc_off[1:]] - cs[doc_off[:-1]]
        # window hashes: Σ_{j<k} b[s+j] · P^j over starts that never cross
        # doc boundaries; every doc has ≥1 window (short docs are padded)
        n_win = lens - k + 1
        total_win = int(n_win.sum())
        starts = np.repeat(doc_off[:-1], n_win) + (
            np.arange(total_win) - np.repeat(np.cumsum(n_win) - n_win, n_win)
        )
        sh = np.zeros(total_win, dtype=np.uint64)
        for j in range(k):
            sh += b_all[starts + j] * self.pows[j]
        win_off = np.concatenate(([0], np.cumsum(n_win)))[:-1]
        fp_min = np.minimum.reduceat(sh, win_off)
        return full, fp_min

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        full, mn = self.batch_fp(df[self.text_col].astype(str).tolist())
        out["fingerprint"] = full.astype(np.int64)
        out["fp_min"] = mn.astype(np.int64)
        return out.drop(columns=[self.text_col])


class TextFeaturizer:
    """Single-pass composite text-analysis stage: one read + one vectorized
    ``map_batches`` computes every per-doc feature the separate stages
    produce — doc stats (n_chars/n_spaces/n_punct), whitespace token count,
    quality raw features (n_words/n_stop), marker-table language ID, and
    the whitespace-normalized MD5 fingerprint. The scale point: at 100 TB
    running five separate per-doc stages re-reads or re-pipes the corpus
    five times; this folds them into one pass over the same batch. All
    regexes compile once per worker (``_worker_cached``)."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.ws = re.compile(r"\S+")
        self.word = re.compile(r"[a-z]+")
        self.stop_rx = re.compile(r"\b(?:" + "|".join(QualityScorer.STOP) + r")\b")
        self.lang_pats = {
            lang: re.compile(r"\b(?:" + "|".join(ws) + r")\b")
            for lang, ws in sorted(LangId.MARKERS.items())
        }

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        import hashlib

        s = df[self.text_col].astype(str)
        low = s.str.lower()
        out = df.drop(columns=[self.text_col]).copy()
        out["n_chars"] = s.str.len().astype("int64")
        out["n_spaces"] = s.str.count(" ").astype("int64")
        out["n_punct"] = s.str.count(f"[{_PUNCT}]").astype("int64")
        out["n_ws_tokens"] = s.str.count(self.ws).astype("int64")
        out["n_words"] = low.str.count(self.word).astype("int64")
        out["n_stop"] = low.str.count(self.stop_rx).astype("int64")
        counts = pd.DataFrame({lang: low.str.count(p)
                               for lang, p in self.lang_pats.items()})
        best = counts.idxmax(axis=1)
        best[counts.max(axis=1) == 0] = "und"
        out["lang_pred"] = best.values
        norm = s.str.split().str.join(" ")
        # md5 has no vectorized kernel; digesting pre-normalized strings is
        # the only per-row Python left in the text family
        out["fp_md5"] = [hashlib.md5(x.encode()).hexdigest() for x in norm]
        return out


def text_features(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(TextFeaturizer, text_col), batch_format="pandas",
        batch_size=4096,
    )


class Tokenizer:
    """Deterministic hash-vocabulary tokenizer: the GPT-2-shaped
    pretokenizer regex (same shape as ``TokenCounter.bpe``) splits text
    into pieces; each piece maps to a stable id in ``[0, vocab)`` via the
    fixed-key siphash (one ``hash_array`` call for the WHOLE batch's
    pieces — no per-token Python hashing). No external model files in this
    container; the operator's point is the Ray shape: actor-pool
    ``map_batches`` (regex compiled once per actor), vectorized id
    assignment, ``list<int32>`` output matching the lake schema
    (``doc_id, tokens, n_tok``) so documents flow straight into
    ``pack_sequences`` / the CDC lake."""

    def __init__(self, text_col: str = "text", key_col: str = "doc_id",
                 vocab: int = 50257):
        import re

        self.text_col, self.key_col, self.vocab = text_col, key_col, vocab
        self.bpe = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        pieces = [self.bpe.findall(s or "") for s in texts]
        lens = np.fromiter((len(p) for p in pieces), dtype=np.int64,
                           count=len(pieces))
        flat = np.array([w for sub in pieces for w in sub], dtype=object)
        if len(flat):
            ids = (pd.util.hash_array(flat, categorize=False)
                   % np.uint64(self.vocab)).astype(np.int32)
        else:
            ids = np.zeros(0, dtype=np.int32)
        offs = np.zeros(len(pieces) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        tokens = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                          pa.array(ids, pa.int32()))
        return pa.table(
            {
                self.key_col: t[self.key_col],
                "tokens": tokens,
                "n_tok": pa.array(lens.astype(np.int32)),
            }
        )


def tokenize(ds: rd.Dataset, text_col: str = "text", key_col: str = "doc_id",
             vocab: int = 50257) -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(Tokenizer, text_col, key_col, vocab),
        batch_format="pyarrow", batch_size=2048, zero_copy_batch=True,
    )


class PIIRedactor:
    """PII detection + redaction (worker-cached: regexes compile once per
    worker process): emails, North-American-shaped phone numbers and
    IPv4 addresses are counted and replaced with typed placeholders
    (``[EMAIL]`` / ``[PHONE]`` / ``[IP]``) — the standard pre-training
    scrub pass. Vectorized via pandas ``str.count`` / ``str.replace``
    (one compiled-regex pass per kind over the whole batch).
    Idempotent: placeholders don't re-match any pattern."""

    _PATTERNS = (
        ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
         "[EMAIL]"),
        # a paren'd area code is unambiguous (separators optional); the
        # bare form still requires separators so 10-digit ids don't redact
        ("phone", r"(?<!\d)(?:\+?1[-.\s]?)?(?:\(\d{3}\)[-.\s]?\d{3}[-.\s]?\d{4}"
                  r"|\d{3}[-.\s]\d{3}[-.\s]\d{4})(?!\d)",
         "[PHONE]"),
        ("ip", r"(?<!\d)(?:\d{1,3}\.){3}\d{1,3}(?!\d)", "[IP]"),
    )

    def __init__(self, text_col: str = "text", key_col: str = "doc_id"):
        import re

        self.text_col, self.key_col = text_col, key_col
        self.compiled = [(k, re.compile(rx), sub)
                         for k, rx, sub in self._PATTERNS]

    def __call__(self, df: pd.DataFrame) -> pa.Table:
        s = df[self.text_col].fillna("")
        cols = {self.key_col: pa.Array.from_pandas(df[self.key_col])}
        red = s
        for kind, rx, sub in self.compiled:  # email first: its local part
            cols[f"n_{kind}"] = pa.array(  # may hold phone-like digits
                red.str.count(rx).to_numpy(), pa.int64())
            red = red.str.replace(rx, sub, regex=True)
        # explicit Arrow output pins the schema so mixed-source unions
        # (string vs large_string inference) concat cleanly
        cols["redacted"] = pa.array(red.tolist(), pa.string())
        return pa.table(cols)


def redact_pii(ds: rd.Dataset, text_col: str = "text",
               key_col: str = "doc_id") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(PIIRedactor, text_col, key_col),
        batch_format="pandas", batch_size=4096,
    )


# --- dataset-level helpers --------------------------------------------------

class JsonFieldExtractor:
    """Semi-structured extraction: pull one scalar field out of a JSON
    string column. Stateful actor stage: the field regex (fast path for
    flat objects) is compiled ONCE per actor; rows the regex misses fall
    back to a real ``json.loads``."""

    def __init__(self, json_col: str, field: str, out_col: str | None = None):
        import json as _json
        import re as _re

        self.json_col, self.field = json_col, field
        self.out_col = out_col or field
        self.rx = _re.compile(
            r'"%s"\s*:\s*("(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?|true|false|null)'
            % _re.escape(field)
        )
        self._loads = _json.loads

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        raw = df[self.json_col].astype(str)
        got = raw.str.extract(self.rx, expand=False)  # vectorized regex
        miss = got.isna() & raw.notna()
        if miss.any():  # nested/escaped cases: real parse
            got.loc[miss] = raw[miss].map(
                lambda s: self._loads(s).get(self.field) if s else None
            ).map(lambda v: None if v is None else str(v))
        out = df.drop(columns=[self.json_col])
        out[self.out_col] = got
        return out


def json_extract(
    ds: rd.Dataset, json_col: str, field: str, out_col: str | None = None,
    out_type: "pa.DataType | None" = None,
) -> rd.Dataset:
    out = ds.map_batches(
        _worker_cached(JsonFieldExtractor, json_col, field, out_col),
        batch_format="pandas", batch_size=16384,
    )
    if out_type is not None:
        name = out_col or field
        out = out.map_batches(
            lambda t: t.set_column(
                t.column_names.index(name), name, pc.cast(t[name], out_type)
            ),
            batch_format="pyarrow",
        )
    return out


def doc_stats(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        lambda t: doc_stats_batch(t, text_col), batch_format="pyarrow", zero_copy_batch=True
    )


def token_counts(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(TokenCounter, text_col), batch_format="pandas",
        batch_size=4096,
    )


def lang_id(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(LangId, text_col), batch_format="pandas", batch_size=4096,
    )


def quality(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(QualityScorer, text_col), batch_format="pandas",
        batch_size=4096,
    )


def fingerprints(ds: rd.Dataset, text_col: str = "text") -> rd.Dataset:
    return ds.map_batches(
        _worker_cached(Fingerprinter, text_col), batch_format="pandas",
        batch_size=4096,
    )


class HtmlExtractor:
    """HTML → text extraction (worker-cached: regexes compile once per
    worker process) — the universal first curation step on crawl payloads,
    from scratch on stdlib only (no bs4/lxml in this container, and a
    regex pipeline over whole batches beats a DOM parse for this shape).

    Pipeline per batch (pandas ``str.replace`` = one compiled-regex pass
    per stage over ALL rows): (1) drop ``<script>``/``<style>``/
    ``<template>``/``<noscript>`` elements and comments/CDATA wholesale,
    (2) turn block-level boundaries (``</p>``, ``<br>``, ``</div>``,
    headings, list items, table cells...) into newlines so words from
    different blocks never fuse, (3) strip every remaining tag, (4)
    unescape HTML entities (``html.unescape`` — the one per-row step;
    stdlib, full named-entity table), (5) collapse runs of whitespace,
    preserving single newlines as paragraph hints. Plain text without
    angle-bracket markup passes through unchanged (safe on mixed drops);
    extraction is a ONE-pass step — entity unescaping can surface
    markup-LOOKING text (``&lt;para&gt;`` → ``<para>``) that a second
    pass would wrongly strip, the inherent ambiguity of any
    HTML-to-text. Boilerplate REMOVAL beyond script/style (nav/footer chrome)
    is deliberately out of scope — that's the LM quality filter's job
    downstream (`functions/lm.py`)."""

    _BLOCK_TAGS = ("p|div|br|li|ul|ol|table|tr|td|th|h[1-6]|section|article"
                   "|header|footer|blockquote|pre|figure|figcaption|nav"
                   "|aside|form|hr|dt|dd|dl")

    def __init__(self, text_col: str = "text", out_col: str | None = None):
        import re

        self.text_col = text_col
        self.out_col = out_col or text_col
        f = re.IGNORECASE | re.DOTALL
        self._drop = re.compile(
            r"<(script|style|template|noscript)\b.*?</\1\s*>|<!--.*?-->"
            r"|<!\[CDATA\[.*?\]\]>", f)
        self._block = re.compile(rf"</?(?:{self._BLOCK_TAGS})\b[^>]*>", f)
        self._tag = re.compile(r"</?[A-Za-z!][^>]*>", re.DOTALL)
        self._ws = re.compile(r"[ \t\r\f\v]+")
        self._nl = re.compile(r"\s*\n\s*")

    def __call__(self, t: pa.Table) -> pa.Table:
        import html as _html

        s = pd.Series(t[self.text_col].to_pylist(), dtype=object).fillna("")
        s = s.str.replace(self._drop, " ", regex=True)
        s = s.str.replace(self._block, "\n", regex=True)
        s = s.str.replace(self._tag, " ", regex=True)
        s = s.map(_html.unescape)
        s = s.str.replace(self._ws, " ", regex=True)
        s = s.str.replace(self._nl, "\n", regex=True).str.strip()
        out = pa.array(s.tolist(), pa.string())
        if self.out_col in t.column_names:
            return t.set_column(t.column_names.index(self.out_col),
                                self.out_col, out)
        return t.append_column(self.out_col, out)


def html_to_text(ds: rd.Dataset, text_col: str = "text",
                 out_col: str | None = None) -> rd.Dataset:
    """Extract readable text from HTML payloads (see ``HtmlExtractor``)."""
    return ds.map_batches(
        _worker_cached(HtmlExtractor, text_col, out_col),
        batch_format="pyarrow", batch_size=2048, zero_copy_batch=True,
    )
