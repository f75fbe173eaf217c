"""Tests for training-data ops: dedup family, ANN, text analysis, image
stages — synthetic fixtures with planted duplicates/neighbors."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from go_tfdata_ray.functions import ann, dedup, multimodal, text


def docs_with_dups():
    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "a completely different sentence about data processing engines",
        "rust and go and python walk into a distributed system",
        "large language models eat tokens for breakfast lunch and dinner",
    ]
    rows = []
    for i, t in enumerate(base):
        rows.append((i, t))
        rows.append((100 + i, t))  # exact duplicate
    rows.append((200, base[0].replace("dog", "cat")))  # near-dup of doc 0
    rows.append((300, "unique standalone snippet with no twin whatsoever"))
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_exact_dedup():
    ds = rd.from_pandas(docs_with_dups())
    out = dedup.exact_dedup(ds).to_pandas().sort_values("doc_id")
    # 4 duplicated texts keep min id with n_copies=2, plus 2 singletons
    assert len(out) == 6
    dup_rows = out[out["n_copies"] == 2]
    assert sorted(dup_rows["doc_id"]) == [0, 1, 2, 3]


def test_minhash_lsh_finds_near_dups():
    ds = rd.from_pandas(docs_with_dups())
    out = dedup.minhash_lsh_dedup(ds, threshold=0.4, bands=32, n_perm=64).to_pandas()
    flagged = dict(zip(out["doc_id"], out["dup_of"]))
    for i in range(4):  # exact dups always flagged against the original
        assert flagged.get(100 + i) == i
    assert flagged.get(200) == 0  # near-dup (1-word change) found
    assert 300 not in flagged


def test_simhash_exact_match_dedup():
    ds = rd.from_pandas(docs_with_dups())
    out = dedup.simhash_dedup(ds).to_pandas()
    assert len(out) == 6  # identical texts share simhash
    assert out["n_copies"].sum() == 10


def test_simhash_batch_matches_per_doc():
    """Batch-vectorized simhash is bit-identical to the per-doc formula,
    including empty docs, short docs, and trailing-empty batches."""
    sh = dedup.SimHasher()
    texts = ["the quick brown fox", "", "a", "the quick brown fox", "x y z w", ""]

    def per_doc(text):
        toks = np.array(text.lower().split(), dtype=object)
        if len(toks) == 0:
            return 0
        h = pd.util.hash_array(toks, categorize=False)
        bitmat = ((h[:, None] & sh.bits[None, :]) != 0).astype(np.int32)
        votes = bitmat.sum(axis=0) * 2 - len(toks)
        return int(((votes > 0).astype(np.uint64) * sh.bits).sum(dtype=np.uint64))

    got = sh.batch_simhash(texts)
    assert [int(g) for g in got] == [per_doc(t) for t in texts]


def test_fingerprint_batch_matches_per_doc():
    from go_tfdata_ray.functions.text import Fingerprinter

    fp = Fingerprinter()
    texts = ["hello world, this is a doc", "tiny", "", "hello world, this is a doc",
             "another slightly longer document body here"]
    full, mn = fp.batch_fp(texts)
    ref = [fp._fp(t) for t in texts]
    assert [int(x) for x in full] == [r[0] for r in ref]
    assert [int(x) for x in mn] == [r[1] for r in ref]


def test_ngram_jaccard():
    a = "the quick brown fox jumps over the lazy dog"
    assert dedup.ngram_jaccard(a, a) == 1.0
    assert dedup.ngram_jaccard(a, "entirely different words here friend") == 0.0
    assert 0.4 < dedup.ngram_jaccard(a, a.replace("dog", "cat")) < 1.0


def synth_embeddings(n=200, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, dim))
    mat[10] = mat[0] * 2.0 + rng.standard_normal(dim) * 1e-4  # near-dup of 0 (cosine ~1)
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(mat)})


def test_embedding_neardup():
    df = synth_embeddings()
    ds = rd.from_pandas(df)
    out = dedup.embedding_neardup(ds, threshold=0.99).to_pandas()
    pairs = set(zip(out["vec_id"], out["dup_of"]))
    assert (10, 0) in pairs


def test_brute_force_topk_matches_numpy():
    df = synth_embeddings(100, 8)
    ds = rd.from_pandas(df)
    q = df[df["vec_id"] < 2]
    out = ann.brute_force_topk(ds, q, k=5).to_pandas()
    assert len(out) == 10
    mat = np.stack(df["embedding"].to_numpy())
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qid in (0, 1):
        sims = unit @ unit[qid]
        sims[qid] = -np.inf
        expect = set(np.argsort(-sims)[:5])
        got = set(out[out["query_id"] == qid]["vec_id"])
        assert got == expect
        # ranks ordered by descending score
        sub = out[out["query_id"] == qid].sort_values("rank")
        assert (np.diff(sub["score"].to_numpy()) <= 1e-12).all()


def test_lsh_topk_runs_and_is_subset_quality():
    df = synth_embeddings(300, 16)
    ds = rd.from_pandas(df)
    q = df[df["vec_id"] < 3]
    out = ann.lsh_topk(ds, q, k=5).to_pandas()
    assert set(out["query_id"]) <= {0, 1, 2}
    assert (out.groupby("query_id").size() <= 5).all()


def test_ngram_verified_dedup():
    ds = rd.from_pandas(docs_with_dups())
    out = dedup.ngram_verified_dedup(ds, threshold=0.4).to_pandas()
    flagged = dict(zip(out["doc_id"], out["dup_of"]))
    for i in range(4):
        assert flagged.get(100 + i) == i
        assert out[out["doc_id"] == 100 + i]["jaccard"].iloc[0] == 1.0
    assert 300 not in flagged


def test_ngram_verified_dedup_bloom_path_matches_exact_path():
    """max_broadcast_members=0 forces the distributed Bloom narrow (the
    100 TB path — no candidate-proportional driver set); the result must be
    identical to the default exact-set path (Bloom false positives are
    dropped by the inner hash join)."""
    ds = rd.from_pandas(docs_with_dups())
    small = dedup.ngram_verified_dedup(ds, threshold=0.4).to_pandas()
    large = dedup.ngram_verified_dedup(
        ds, threshold=0.4, max_broadcast_members=0).to_pandas()
    key = ["doc_id", "dup_of"]
    s = small.sort_values(key).reset_index(drop=True)
    l = large.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(s, l, check_like=True)
    assert len(s) >= 4  # the planted dups actually survived both paths


def test_ivf_topk_high_recall_vs_brute_force():
    df = synth_embeddings(n=400, dim=16)
    ds = rd.from_pandas(df)
    queries = df.head(3)
    exact = ann.brute_force_topk(ds, queries, k=5).to_pandas()
    approx = ann.ivf_topk(ds, queries, k=5, n_centroids=16, n_probe=16).to_pandas()
    # full-probe IVF is exact: same neighbor sets per query
    for qid in queries["vec_id"]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        assert e == a
    # the planted near-dup must be query 0's top neighbor
    top0 = approx[approx["query_id"] == 0].sort_values("rank").iloc[0]
    assert top0["vec_id"] == 10


def test_persisted_ann_index_build_query_append(tmp_path):
    from go_tfdata_ray.functions import annidx

    df = synth_embeddings(n=400, dim=16)
    ds = rd.from_pandas(df)
    idx = str(tmp_path / "annidx")
    res = annidx.build_ann_index(ds, idx, n_centroids=16)
    assert res["n_rows"] == 400 and res["fragments"] > 1

    queries = df.head(3)
    total = annidx.fragment_count(idx)
    # partial probe reads STRICTLY fewer fragments than the corpus holds —
    # the whole point of persisting the inverted lists
    partial, _ = annidx.plan_probe(idx, queries, n_probe=2)
    assert 0 < partial.num_rows < total
    full, _ = annidx.plan_probe(idx, queries, n_probe=16)
    assert full.num_rows == total

    # full probe is exact: same neighbor sets as brute force
    exact = ann.brute_force_topk(ds, queries, k=5).to_pandas()
    got = annidx.query_ann_index(idx, queries, k=5, n_probe=16).to_pandas()
    for qid in queries["vec_id"]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(got[got["query_id"] == qid]["vec_id"])
        assert e == a
    # planted near-dup (vec 10 ≈ vec 0) must top query 0 even at n_probe=2
    approx = annidx.query_ann_index(idx, queries, k=5, n_probe=2).to_pandas()
    top0 = approx[approx["query_id"] == 0].sort_values("rank").iloc[0]
    assert top0["vec_id"] == 10

    # rebuild guard
    import pytest as _pytest
    with _pytest.raises(FileExistsError):
        annidx.build_ann_index(ds, idx)

    # incremental append: new rows join the lists WITHOUT retraining and
    # become queryable; full probe stays exact over the grown corpus
    extra = synth_embeddings(n=500, dim=16).tail(100).copy()
    extra["vec_id"] = extra["vec_id"] + 10_000
    r2 = annidx.append_ann_index(rd.from_pandas(extra), idx)
    assert r2["n_rows_appended"] == 100 and r2["version"] == 2
    assert annidx.fragment_count(idx) > total
    grown = pd.concat([df, extra], ignore_index=True)
    exact2 = ann.brute_force_topk(rd.from_pandas(grown), queries, k=5).to_pandas()
    got2 = annidx.query_ann_index(idx, queries, k=5, n_probe=16).to_pandas()
    for qid in queries["vec_id"]:
        e = set(exact2[exact2["query_id"] == qid]["vec_id"])
        a = set(got2[got2["query_id"] == qid]["vec_id"])
        assert e == a


def test_persisted_ann_index_pq_adc(tmp_path, monkeypatch):
    """IVF-PQ serving path: codes persist in the run files, the ADC kernel
    reads ONLY (key, pq_codes) — never the embedding column — and
    adc_refine's exact rescore reproduces the exact-mode neighbor sets and
    scores."""
    from go_tfdata_ray.functions import annidx

    df = synth_embeddings(n=400, dim=16)
    ds = rd.from_pandas(df)
    idx = str(tmp_path / "annidx_pq")
    res = annidx.build_ann_index(ds, idx, n_centroids=16, pq_m=4)
    assert res["n_rows"] == 400

    # codes landed in the run files as M-byte fixed-size lists
    import glob as _glob

    import pyarrow.parquet as _pq
    run = _glob.glob(f"{idx}/runs/*.parquet")[0]
    sch = _pq.read_schema(run)
    assert "pq_codes" in sch.names
    assert sch.field("pq_codes").type == pa.list_(pa.uint8(), 4)

    queries = df.head(3)
    exact = annidx.query_ann_index(idx, queries, k=5, n_probe=16).to_pandas()

    # ---- in-process kernel run: assert the pruned read column set ----
    frags, probing = annidx.plan_probe(idx, queries, n_probe=16)
    state, cent = annidx._load_state(idx)
    books = np.load(f"{idx}/pq_codebooks.npy")
    q_unit = annidx._unit(np.stack(queries["embedding"].to_numpy()).astype(np.float64))
    pq_m, _, dsub = books.shape
    payload = {
        "q_ids": queries["vec_id"].to_numpy(), "probing": probing, "dead": {},
        "bases": q_unit @ cent.T,
        "luts": np.einsum("qmd,mkd->qmk", q_unit.reshape(len(q_unit), pq_m, dsub), books),
    }
    seen_cols = []
    real_pf = annidx.pq.ParquetFile

    class SpyPF(real_pf):
        def read_row_group(self, i, columns=None, **kw):
            seen_cols.append(tuple(columns) if columns else None)
            return super().read_row_group(i, columns=columns, **kw)

    monkeypatch.setattr(annidx.pq, "ParquetFile", SpyPF)
    cand = annidx._adc_score_block(frags, idx, payload, "vec_id", pa.int64(),
                                   k_cand=5, exclude_self=True, provenance=False)
    monkeypatch.undo()
    assert seen_cols and all(c == ("vec_id", "pq_codes") for c in seen_cols)
    assert cand.num_rows > 0

    # ---- distributed ADC: high recall at full probe, planted dup on top
    adc = annidx.query_ann_index(idx, queries, k=5, n_probe=16,
                                 mode="adc").to_pandas()
    hits = 0
    for qid in queries["vec_id"]:
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(adc[adc["query_id"] == qid]["vec_id"])
        hits += len(e & a)
    assert hits >= 12  # recall@5 >= 0.8 over 3 queries
    top0 = adc[adc["query_id"] == 0].sort_values("rank").iloc[0]
    assert top0["vec_id"] == 10  # the planted near-dup survives quantization

    # ---- adc_refine: exact neighbor sets AND exact scores
    ref = annidx.query_ann_index(idx, queries, k=5, n_probe=16,
                                 mode="adc_refine", refine_factor=4).to_pandas()
    for qid in queries["vec_id"]:
        e = exact[exact["query_id"] == qid].sort_values("rank")
        r = ref[ref["query_id"] == qid].sort_values("rank")
        assert set(e["vec_id"]) == set(r["vec_id"])
        es = e.set_index("vec_id")["score"]
        rs = r.set_index("vec_id")["score"]
        assert np.allclose(es.sort_index(), rs.sort_index(), atol=1e-9)

    # ---- append keeps encoding new rows; refine stays exact over growth
    extra = synth_embeddings(n=500, dim=16, seed=7).tail(80).copy()
    extra["vec_id"] = extra["vec_id"] + 10_000
    annidx.append_ann_index(rd.from_pandas(extra), idx)
    grown_exact = annidx.query_ann_index(idx, queries, k=5, n_probe=16).to_pandas()
    grown_ref = annidx.query_ann_index(idx, queries, k=5, n_probe=16,
                                       mode="adc_refine", refine_factor=4).to_pandas()
    # appended rows are coded with the ORIGINAL codebooks (no retrain —
    # the documented append contract), so a #5 near-tie may miss the ADC
    # narrow: assert high recall, exact scores on the overlap, and that
    # the planted near-dup still tops query 0
    for qid in queries["vec_id"]:
        e = grown_exact[grown_exact["query_id"] == qid]
        r = grown_ref[grown_ref["query_id"] == qid]
        both = set(e["vec_id"]) & set(r["vec_id"])
        assert len(both) >= 4
        es = e.set_index("vec_id")["score"]
        rs = r.set_index("vec_id")["score"]
        assert np.allclose(es[sorted(both)], rs[sorted(both)], atol=1e-9)
    gtop0 = grown_ref[grown_ref["query_id"] == 0].sort_values("rank").iloc[0]
    assert gtop0["vec_id"] == 10

    # ---- ADC modes demand PQ codes
    plain = str(tmp_path / "annidx_plain")
    annidx.build_ann_index(ds, plain, n_centroids=8)
    with pytest.raises(ValueError, match="pq_m"):
        annidx.query_ann_index(plain, queries, k=5, n_probe=8, mode="adc")


def test_doc_stats_and_token_count():
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b,  c! d", "xyz"]})
    ds = rd.from_pandas(df)
    stats = text.doc_stats(ds).to_pandas().set_index("doc_id")
    assert stats.loc[1, "n_chars"] == 10
    assert stats.loc[1, "n_spaces"] == 4
    assert stats.loc[1, "n_punct"] == 2
    toks = text.token_counts(ds).to_pandas().set_index("doc_id")
    assert toks.loc[1, "n_ws_tokens"] == 4
    assert toks.loc[2, "n_ws_tokens"] == 1


def test_lang_id_markers():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "the cat is on the mat with the hat",
                "der hund und die katze ist nicht da",
                "zzz qqq www",
            ],
        }
    )
    out = text.lang_id(rd.from_pandas(df)).to_pandas().set_index("doc_id")
    assert out.loc[1, "lang_pred"] == "en"
    assert out.loc[2, "lang_pred"] == "de"
    assert out.loc[3, "lang_pred"] == "und"


def test_fingerprint_deterministic_and_sensitive():
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["hello world", "hello world", "hello worlds"]})
    out = text.fingerprints(rd.from_pandas(df)).to_pandas()
    fp = out.set_index("doc_id")["fingerprint"]
    assert fp[1] == fp[2]
    assert fp[1] != fp[3]


def test_image_decoder_unknown_payload_raises():
    # a payload no image codec recognizes fails at the codec seam
    t = pa.table({"media_id": ["m-0"],
                  "payload": pa.array([b"\x00raw bytes"], pa.large_binary())})
    with pytest.raises(NotImplementedError, match="PNG"):
        multimodal.ImageDecoder()(t)


def test_cluster_duplicates_transitive():
    pairs = pd.DataFrame({"doc_id": [5, 9, 3, 20], "dup_of": [1, 5, 1, 21]})
    out = dedup.cluster_duplicates(rd.from_pandas(pairs)).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster"]))
    # 1~5, 5~9, 1~3 → all cluster to 1; 20~21 cluster to 20
    assert got == {1: 1, 3: 1, 5: 1, 9: 1, 20: 20, 21: 20}


def test_json_extract_fast_path_and_fallback():
    df = pd.DataFrame(
        {
            "id": [1, 2, 3, 4],
            "props": [
                '{"k": 7}',
                '{"other": 1, "k": -3}',
                '{"k": "str\\"quoted"}',
                '{"nested": {"k": 9}, "k": 5}',
            ],
        }
    )
    out = text.json_extract(rd.from_pandas(df), "props", "k").to_pandas()
    got = dict(zip(out["id"], out["k"]))
    assert got[1] == "7" and got[2] == "-3"
    assert got[4] == "5" or got[4] == "9"  # flat regex finds first occurrence
    typed = text.json_extract(
        rd.from_pandas(df.iloc[:2]), "props", "k", out_type=pa.int64()
    ).to_pandas()
    assert list(typed["k"]) == [7, -3]


def test_simhash_banded_neardup_planted():
    base = " ".join(f"word{i}" for i in range(1000))
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                base,
                base.replace("word7 ", "wordX "),  # hamming 1 from base
                " ".join(f"tok{i}" for i in range(1000)),  # far away
                base,  # exact copy → hamming 0
            ],
        }
    )
    out = dedup.simhash_banded_neardup(rd.from_pandas(df), max_hamming=3).to_pandas()
    flagged = dict(zip(out["doc_id"], out["dup_of"]))
    assert flagged.get(2) == 1 and flagged.get(4) == 1
    assert 3 not in flagged
    ham = dict(zip(out["doc_id"], out["hamming"]))
    assert ham[4] == 0 and ham[2] <= 3


def test_lsh_topk_recall_planted_neighbor():
    # vec 10 = 2·vec0 + tiny noise: same direction → same sign bucket, so
    # single-probe LSH must recall the planted top neighbor of query 0
    df = synth_embeddings(300, 16)
    ds = rd.from_pandas(df)
    q = df[df["vec_id"] < 1]
    out = ann.lsh_topk(ds, q, k=5).to_pandas()
    got0 = out[out["query_id"] == 0].sort_values("rank")
    assert 10 in set(got0["vec_id"])
    assert got0.iloc[0]["vec_id"] == 10  # and it ranks first (cos ≈ 1)


def test_ann_lsh_and_ivf_recall_vs_brute_force():
    # quantitative recall@k on a fixed fixture (VERDICT r01 next-round #1)
    df = synth_embeddings(400, 16)
    ds = rd.from_pandas(df)
    queries = df.head(4)
    exact = ann.brute_force_topk(ds, queries, k=10).to_pandas()
    ivf = ann.ivf_topk(ds, queries, k=10, n_centroids=16, n_probe=8).to_pandas()
    lsh = ann.lsh_topk(ds, queries, k=10).to_pandas()

    def recall(approx):
        hits = tot = 0
        for qid in queries["vec_id"]:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(approx[approx["query_id"] == qid]["vec_id"])
            hits += len(e & a)
            tot += len(e)
        return hits / tot

    assert recall(ivf) >= 0.7  # multi-probe IVF: high recall
    # single-probe LSH on ISOTROPIC data only recalls ~bucket occupancy
    # (≈ n/2^planes of the corpus) — the planted true-neighbor guarantee is
    # the meaningful recall assertion (test_lsh_topk_recall_planted_neighbor)
    assert recall(lsh) >= 0.05


def test_quality_scores_golden():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["the cat sat on the mat.", "zzz"],
        }
    )
    out = text.quality(rd.from_pandas(df)).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_words"] == 6
    assert out.loc[1, "n_stop"] == 2  # 'the' ×2 ('on'/'cat'/... not in STOP)
    assert out.loc[2, "n_words"] == 1 and out.loc[2, "n_stop"] == 0
    assert 0.0 <= out.loc[1, "quality"] <= 1.0
    assert abs(out.loc[1, "stop_ratio"] - 2 / 6) < 1e-12


def test_pack_token_conservation():
    from go_tfdata_ray.functions import pack

    rng = np.random.default_rng(5)
    lens = rng.integers(1, 40, size=200)
    toks = [list(rng.integers(0, 1000, size=n)) for n in lens]
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(200)]),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
        }
    )
    packed = pack.pack_sequences(rd.from_arrow(t), context_len=64,
                                 eod_token=1001, batch_size=64).to_pandas()
    content = int(round(packed["fill_ratio"].sum() * 64))
    assert content == int(lens.sum()) + 200  # Σ n_tok + one EOD per doc
    assert all(len(s) == 64 for s in packed["tokens"])  # fixed-width output


def test_tokenizer_deterministic_and_lake_shaped():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["Hello, world! 42 times", "", "repeat repeat repeat"],
        }
    )
    out1 = text.tokenize(rd.from_pandas(df), vocab=1000).to_pandas().set_index("doc_id")
    out2 = text.tokenize(rd.from_pandas(df), vocab=1000).to_pandas().set_index("doc_id")
    # deterministic ids, identical across runs
    for d in (1, 2, 3):
        assert list(out1.loc[d, "tokens"]) == list(out2.loc[d, "tokens"])
    # piece counts: Hello / , / world / ! / 42 / times = 6
    assert out1.loc[1, "n_tok"] == 6 and len(out1.loc[1, "tokens"]) == 6
    assert out1.loc[2, "n_tok"] == 0 and len(out1.loc[2, "tokens"]) == 0
    # same piece → same id; ids within vocab
    t3 = list(out1.loc[3, "tokens"])
    assert len(set(t3)) == 1 and 0 <= t3[0] < 1000
    # n_tok agrees with TokenCounter's bpe count (same regex)
    tc = text.token_counts(rd.from_pandas(df)).to_pandas().set_index("doc_id")
    assert (tc["n_bpe_tokens"].sort_index() == out1["n_tok"].sort_index()).all()


def test_chunk_documents_windows_and_conservation():
    from go_tfdata_ray.functions.pack import chunk_batch, chunk_documents

    rng = np.random.default_rng(7)
    docs = [list(map(int, rng.integers(0, 100, n)))
            for n in (0, 1, 5, 16, 17, 31, 32, 33, 100, 257)]
    t = pa.table({"doc_id": [f"d{i}" for i in range(len(docs))],
                  "tokens": pa.array(docs, pa.list_(pa.int32()))})

    def ref_chunks(tokens, ctx, ov):
        stride = ctx - ov
        if len(tokens) <= ctx:
            return [tokens]
        out, i = [], 0
        while True:
            out.append(tokens[i:i + ctx])
            if i + ctx >= len(tokens):
                break
            i += stride
        return out

    for ctx, ov in ((16, 0), (16, 4), (16, 15), (32, 8)):
        out = chunk_batch(t, ctx, ov)
        got: dict = {}
        for d, ci, tk in zip(out["doc_id"].to_pylist(),
                             out["chunk_idx"].to_pylist(),
                             out["tokens"].to_pylist()):
            got.setdefault(d, []).append((ci, tk))
        for i, doc in enumerate(docs):
            want = ref_chunks(doc, ctx, ov)
            assert [tk for _, tk in sorted(got[f"d{i}"])] == want
        # no-overlap chunking conserves every token exactly once
        if ov == 0:
            assert int(out["n_tok"].to_numpy().sum()) == sum(map(len, docs))

    # distributed flat-map shape over a Dataset
    ds = rd.from_arrow(t)
    out = chunk_documents(ds, context_len=16, overlap=4).to_pandas()
    assert len(out) == sum(
        max(1, -(-(len(d) - 4) // 12)) for d in docs)
    with pytest.raises(ValueError):
        chunk_batch(t, 16, 16)


def test_tokenize_then_pack_conserves_tokens():
    from go_tfdata_ray.functions import pack

    df = pd.DataFrame(
        {"doc_id": list(range(50)),
         "text": [f"doc {i} body word{i} end." for i in range(50)]}
    )
    toks = text.tokenize(rd.from_pandas(df))
    packed = pack.pack_sequences(toks, context_len=32, eod_token=999).to_pandas()
    content = int(round(packed["fill_ratio"].sum() * 32))
    n_pieces = text.token_counts(rd.from_pandas(df)).to_pandas()["n_bpe_tokens"].sum()
    assert content == int(n_pieces) + 50


# -- real codecs (PNG / WAV, functions/codecs.py) ---------------------------

from go_tfdata_ray.functions import codecs


def test_png_roundtrip_all_shapes():
    rng = np.random.default_rng(3)
    for shape in ((17, 23), (16, 16, 3), (9, 31, 4)):
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        out = codecs.decode_png(codecs.encode_png(img))
        assert out.shape == img.shape and (out == img).all()


def test_png_decode_all_filters():
    """Decoder handles every spec filter; streams are hand-filtered here
    (the encoder itself always emits filter 0)."""
    import struct, zlib

    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (12, 10, 3), dtype=np.uint8)
    h, w, nch = img.shape
    rows = img.reshape(h, w * nch).astype(np.int32)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
        return a if (pa_ <= pb_ and pa_ <= pc_) else (b if pb_ <= pc_ else c)

    raw = bytearray()
    for y in range(h):
        f = y % 5
        raw.append(f)
        prev = rows[y - 1] if y else np.zeros(w * nch, dtype=np.int32)
        for i in range(w * nch):
            cur = int(rows[y][i])
            left = int(rows[y][i - nch]) if i >= nch else 0
            up = int(prev[i])
            ul = int(prev[i - nch]) if i >= nch else 0
            pred = (0, left, up, (left + up) // 2, paeth(left, up, ul))[f]
            raw.append((cur - pred) % 256)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    buf = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(bytes(raw)))
           + chunk(b"IEND", b""))
    out = codecs.decode_png(buf)
    assert (out == img).all()


def test_resize_nearest_identity_and_downscale():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
    assert (codecs.resize_nearest(img, 48, 32) == img).all()
    small = codecs.resize_nearest(img, 12, 8)
    assert small.shape == (8, 12, 3)
    assert set(np.unique(small)) <= set(np.unique(img))


def test_image_decoder_real_features():
    t = multimodal.synth_media_table(6, payload="png")
    dec = multimodal.ImageDecoder()
    out = dec(t)
    feats = np.array(out["features"].to_pylist())
    assert (feats[:, 0] == t["width"].to_numpy(zero_copy_only=False)).all()
    assert (feats[:, 2] == 3).all()  # RGB
    assert ((feats[:, 3] > 0) & (feats[:, 3] < 255)).all()


def test_image_resizer_real_roundtrip():
    t = multimodal.synth_media_table(4, payload="png")
    rs = multimodal.ImageResizer(16, 16)
    out = rs(t)
    for buf in out["payload"].to_pylist():
        img = codecs.decode_png(buf)
        assert img.shape == (16, 16, 3)
    # the Dataset stage produces the same rows
    staged = multimodal.resize_images(rd.from_arrow(t), 16, 16).to_pandas()
    staged = staged.sort_values("media_id")
    assert list(staged["payload"]) == out["payload"].to_pylist()
    assert (staged["width"] == 16).all() and (staged["height"] == 16).all()


def test_image_augmenter_replayable_params():
    from go_tfdata_ray.functions.multimodal import ImageAugmenter

    t = multimodal.synth_media_table(8, payload="png")
    aug = ImageAugmenter(epoch=1, seed=5, crop_frac=0.75)
    out1, out2 = aug(t), ImageAugmenter(1, 5, 0.75)(t)
    # replayable: a fresh instance (≈ a retried task) is byte-identical
    assert out1["payload"].to_pylist() == out2["payload"].to_pylist()
    # per-epoch variety comes from hashing the epoch in
    assert (out1["payload"].to_pylist()
            != ImageAugmenter(2, 5, 0.75)(t)["payload"].to_pylist())
    # one image checked against the direct numpy reference
    mid, buf = t["media_id"][0].as_py(), t["payload"][0].as_py()
    flip, rot, oy, ox = aug._params(mid)
    ref = codecs.decode_image(buf)
    ref = ref[:, ::-1] if flip else ref
    ref = np.rot90(ref, k=rot) if rot else ref
    ch = max(1, int(round(ref.shape[0] * 0.75)))
    cw = max(1, int(round(ref.shape[1] * 0.75)))
    y0 = int(round((ref.shape[0] - ch) * oy))
    x0 = int(round((ref.shape[1] - cw) * ox))
    ref = ref[y0:y0 + ch, x0:x0 + cw]
    assert (codecs.decode_image(out1["payload"][0].as_py()) == ref).all()
    assert out1["width"][0].as_py() == ref.shape[1]


def test_augment_images_distributed():
    t = multimodal.synth_media_table(30, payload="png")
    out = multimodal.augment_images(
        rd.from_arrow(t), epoch=3, seed=9,
        crop_frac=0.5).to_pandas().sort_values("media_id")
    assert len(out) == 30
    # crop halves dims (synth images are 64-160 px, so rounding is exact
    # for even sizes; allow ±1 for odd)
    src_w = {m: w for m, w in zip(t["media_id"].to_pylist(),
                                  t["width"].to_pylist())}
    for m, w, h in zip(out["media_id"], out["width"], out["height"]):
        assert abs(max(w, h) - src_w[m] * 0.5) <= 1
    # replay across the cluster: a second run is byte-identical
    out2 = multimodal.augment_images(
        rd.from_arrow(t), epoch=3, seed=9,
        crop_frac=0.5).to_pandas().sort_values("media_id")
    assert list(out["payload"]) == list(out2["payload"])


def test_bpe_train_encode_decode():
    from go_tfdata_ray.functions.bpe import _PRETOKEN_RX, train_bpe

    corpus = ["the cat sat on the mat", "the dog sat on the log",
              "cats and dogs, 123 456!", "héllo wörld — unicode bytes"] * 5
    bpe = train_bpe(corpus, n_merges=64)
    for s in corpus + ["unseen text with the cat 789 ?!"]:
        ids = bpe.encode(s)
        joined = "".join(_PRETOKEN_RX.findall(s))
        assert bpe.decode(ids) == joined          # lossless by construction
        assert len(ids) < len(joined.encode())    # merges actually compress
    # deterministic: same corpus → identical merge sequence
    assert train_bpe(list(corpus), n_merges=64).merges == bpe.merges
    # classic sanity: an aa-heavy corpus merges (a,a) first
    assert train_bpe(["aaaaaaa aaaa aa"], n_merges=4).merges[0] == (97, 97)
    # vocab ids decode to the byte concatenation of their parts
    for k, (a, b) in enumerate(bpe.merges):
        assert bpe.vocab[256 + k] == bpe.vocab[a] + bpe.vocab[b]


def test_bpe_tokenize_distributed():
    from go_tfdata_ray.functions.bpe import (_PRETOKEN_RX, bpe_tokenize,
                                             train_bpe)

    texts = [f"doc {i} says the cat sat {i % 7} times" for i in range(200)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(200), "text": texts}))
    bpe = train_bpe(ds, n_merges=48, sample_n=64)  # Dataset-input training
    out = bpe_tokenize(ds, bpe.merges).to_pandas().sort_values("doc_id")
    assert len(out) == 200
    for txt, ids, n in zip(texts, out["ids"], out["n_tok"]):
        assert len(ids) == n
        assert bpe.decode(ids) == "".join(_PRETOKEN_RX.findall(txt))


def test_pii_redactor_counts_and_idempotence():
    from go_tfdata_ray.functions.text import PIIRedactor

    r = PIIRedactor()
    df = pd.DataFrame({
        "doc_id": list("abcdef"),
        "text": [
            "contact jane.doe+x@example.co.uk or bob@test.io today",
            "call +1 555-867-5309 or (212) 555-1234 now",
            "server at 192.168.1.100 and 10.0.0.1 responded",
            "mixed: a@b.com then 555-123-4567 then 8.8.8.8 done",
            "clean text with numbers 1234567890 and words only",
            None,
        ]})
    out = r(df).to_pandas()  # stage emits schema-pinned Arrow tables
    assert out["n_email"].tolist() == [2, 0, 0, 1, 0, 0]
    assert out["n_phone"].tolist() == [0, 2, 0, 1, 0, 0]
    assert out["n_ip"].tolist() == [0, 0, 2, 1, 0, 0]
    assert out["redacted"][0] == "contact [EMAIL] or [EMAIL] today"
    assert out["redacted"][3] == "mixed: [EMAIL] then [PHONE] then [IP] done"
    assert out["redacted"][4] == df["text"][4]  # bare 10-digit id kept
    # paren'd area code redacts even without a separator after the paren
    parens = r(pd.DataFrame({"doc_id": ["p"],
                             "text": ["call (555)123-4567 now"]})).to_pandas()
    assert parens["n_phone"][0] == 1
    assert parens["redacted"][0] == "call [PHONE] now"
    # idempotent: placeholders never re-match
    out2 = r(df.assign(text=out["redacted"])).to_pandas()
    assert (out2[["n_email", "n_phone", "n_ip"]].to_numpy() == 0).all()
    assert out2["redacted"].tolist() == out["redacted"].tolist()


def test_redact_pii_distributed():
    from go_tfdata_ray.functions.text import redact_pii

    rows = [(f"d{i:03d}", f"user{i}@mail.com pinged 10.0.0.{i % 256} twice")
            for i in range(200)]
    ds = rd.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))
    out = redact_pii(ds).to_pandas()
    assert len(out) == 200
    assert (out["n_email"] == 1).all() and (out["n_ip"] == 1).all()
    assert out["redacted"].str.contains(r"\[EMAIL\] pinged \[IP\]").all()


def test_char_lm_perplexity_separates_quality():
    import random

    import pyarrow as pa

    from go_tfdata_ray.functions.lm import (PerplexityScorer, V,
                                            train_char_lm)

    clean = ["the quick brown fox jumps over the lazy dog and runs home.",
             "a sentence with normal english words reads quite naturally.",
             "training data quality matters for model performance."] * 30
    logp = train_char_lm(clean)
    assert logp.shape == (V, V, V) and np.isfinite(logp).all()
    assert (train_char_lm(list(clean)) == logp).all()  # deterministic

    sc = PerplexityScorer(logp.tobytes())

    def score(texts):
        return sc(pa.table({"doc_id": [str(i) for i in range(len(texts))],
                            "text": texts}))["ppl"].to_numpy()

    natural = score(["my dog also enjoys running over the green field."])[0]
    rng = random.Random(3)
    shuffled = score(["".join(rng.sample(clean[0], len(clean[0])))])[0]
    gibberish = score(["xq zvv qjk wxz qqq kxj zzv jqx wqk zxv pzq"])[0]
    # clean text must score materially lower perplexity than noise
    assert natural < 0.7 * shuffled and natural < 0.5 * gibberish
    assert np.isnan(score([""])[0])  # empty doc → NaN, not a crash


def test_perplexity_score_distributed():
    from go_tfdata_ray.functions.lm import perplexity_score, train_char_lm

    # the curation recipe: train on CLEAN text, score a mixed corpus
    words = ("the cat dog runs over green field home quick brown fox lazy "
             "reads sentence normal words data model training quality").split()
    clean_train = [" ".join(words[(i + j) % len(words)] for j in range(8)) + "."
                   for i in range(60)]
    train_ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": [f"t{i:03d}" for i in range(60)], "text": clean_train}))
    logp = train_char_lm(train_ds, sample_n=60)  # Dataset-input training

    texts = ([" ".join(words[(i * 3 + j) % len(words)] for j in range(6))
              for i in range(50)]
             + ["zzq qjx vkz xqj zqv kxq jzv qxk zjq vqx"] * 50)
    ds = rd.from_pandas(pd.DataFrame(
        {"doc_id": [f"d{i:03d}" for i in range(100)], "text": texts}))
    out = perplexity_score(ds, logp).to_pandas().sort_values("doc_id")
    assert len(out) == 100 and (out["n_chars"] > 0).all()
    clean_ppl = out["ppl"].to_numpy()[:50].mean()
    noise_ppl = out["ppl"].to_numpy()[50:].mean()
    assert clean_ppl < 0.5 * noise_ppl, (clean_ppl, noise_ppl)


def test_hll_approx_ndv_error_bound_and_determinism():
    from go_tfdata_ray.functions import sketch

    rng = np.random.default_rng(12)
    # 40k rows over ~9k distinct keys (zipf-ish repeats)
    keys = rng.integers(0, 9000, 40_000)
    df = pd.DataFrame({"k": [f"u-{v}" for v in keys]})
    exact = df["k"].nunique()
    est = sketch.approx_ndv(rd.from_pandas(df), "k", p=12)
    assert abs(est - exact) / exact < 0.05, (est, exact)
    est2 = sketch.approx_ndv(rd.from_pandas(df), "k", p=12)
    assert est == est2  # fixed-key hash -> deterministic

    # small range exercises the linear-counting correction
    small = pd.DataFrame({"k": [f"s-{i}" for i in range(150)] * 3})
    est_small = sketch.approx_ndv(rd.from_pandas(small), "k", p=12)
    assert abs(est_small - 150) / 150 < 0.03


def test_heavy_hitters_exact_topk_on_zipf_with_uniform_tail():
    from go_tfdata_ray.functions import sketch

    rng = np.random.default_rng(23)
    # Zipf head: item h-i appears 2000//(i+1) times; adversarial tail of
    # 30k near-uniform items to pollute the count-min rows and the
    # per-block candidate lists
    head = [f"h-{i:02d}" for i in range(40) for _ in range(2000 // (i + 1))]
    tail = [f"t-{v}" for v in rng.integers(0, 10_000, 30_000)]
    vals = np.array(head + tail, dtype=object)
    rng.shuffle(vals)
    df = pd.DataFrame({"w": vals})

    want = (df["w"].value_counts().rename_axis("value").reset_index(name="n")
            .sort_values(["n", "value"], ascending=[False, True], kind="stable")
            .head(15).reset_index(drop=True))
    got = sketch.heavy_hitters(
        rd.from_pandas(df).repartition(8), "w", k=15).to_pandas()
    assert list(got["value"]) == list(want["value"])
    assert list(got["n"]) == list(want["n"])  # pass-2 counts are EXACT

    # determinism across runs (fixed-key hash families)
    got2 = sketch.heavy_hitters(
        rd.from_pandas(df).repartition(8), "w", k=15).to_pandas()
    assert got.equals(got2)

    # >256 blocks routes through the two-level (sharded prefold) path;
    # the answer must be identical
    got3 = sketch.heavy_hitters(
        rd.from_pandas(df).repartition(300), "w", k=15).to_pandas()
    assert list(got3["value"]) == list(want["value"])
    assert list(got3["n"]) == list(want["n"])


def test_heavy_hitters_non_string_column():
    """Non-string columns must hash the SAME stringified key in the CM
    partial, the fold bound, and the recount — hashing raw ints in partial
    but str() candidates in fold makes the min-over-rows bounds garbage and
    can silently prune true heavy hitters."""
    from go_tfdata_ray.functions import sketch

    rng = np.random.default_rng(7)
    head = [i for i in range(20) for _ in range(1000 // (i + 1))]
    tail = list(rng.integers(10_000, 60_000, 20_000))
    vals = np.array(head + tail, dtype=np.int64)
    rng.shuffle(vals)
    df = pd.DataFrame({"v": vals})

    want = (df["v"].astype(str).value_counts().rename_axis("value")
            .reset_index(name="n")
            .sort_values(["n", "value"], ascending=[False, True], kind="stable")
            .head(10).reset_index(drop=True))
    got = sketch.heavy_hitters(
        rd.from_pandas(df).repartition(8), "v", k=10).to_pandas()
    assert list(got["value"]) == list(want["value"])
    assert list(got["n"]) == list(want["n"])


def test_bloom_no_false_negatives_and_fp_bound():
    from go_tfdata_ray.functions import sketch

    rng = np.random.default_rng(21)
    members = [f"k-{i}" for i in range(20_000)]
    ds = rd.from_pandas(pd.DataFrame({"k": members}))
    bloom = sketch.build_bloom(ds, "k", n_bits=1 << 20, k=7)
    # every member reports present
    assert sketch.bloom_contains(bloom, np.array(members, dtype=object)).all()
    # non-members: FP rate well under 1% at this load factor
    others = np.array([f"x-{i}" for i in range(20_000)], dtype=object)
    fp = sketch.bloom_contains(bloom, others).mean()
    assert fp < 0.01, fp


def test_rollup_levels():
    from go_tfdata_ray.stages import relational as rel

    df = pd.DataFrame(
        {
            "a": ["x", "x", "y", "y", "y"],
            "b": ["1", "2", "1", "1", "2"],
            "n": [1, 1, 1, 1, 1],
            "v": [10, 20, 30, 40, 50],
        }
    )
    out = rel.rollup(rd.from_pandas(df), ["a", "b"], ["n", "v"]).to_pandas()
    # 4 finest + 2 per-a + 1 total = 7 rows
    assert len(out) == 7
    total = out[out["a"].isna()]
    assert len(total) == 1 and total["v"].iloc[0] == 150 and total["n"].iloc[0] == 5
    xa = out[(out["a"] == "x") & (out["b"].isna())]
    assert xa["v"].iloc[0] == 30
    fine = out[out["b"].notna()]
    assert len(fine) == 4 and fine["v"].sum() == 150


def test_cluster_duplicates_distributed_matches_union_find():
    rng = np.random.default_rng(17)
    # random graph: 200 edges over 60 nodes, several components + chains
    a = rng.integers(0, 60, 200)
    b = (a + rng.integers(1, 5, 200)) % 60
    pairs = pd.DataFrame({"doc_id": a.astype(np.int64), "dup_of": b.astype(np.int64)})
    want = dedup.cluster_duplicates(rd.from_pandas(pairs)).to_pandas()
    got = dedup.cluster_duplicates_distributed(
        rd.from_pandas(pairs), num_buckets=8).to_pandas()
    w = dict(zip(want["doc_id"], want["cluster"]))
    g = dict(zip(got["doc_id"], got["cluster"]))
    assert g == w

    # chain graph stresses diameter: pointer jumping must close an
    # 8-hop chain in ~log2 rounds, well under max_rounds
    chain = pd.DataFrame({"doc_id": np.arange(1, 9, dtype=np.int64),
                          "dup_of": np.arange(0, 8, dtype=np.int64)})
    got_c = dedup.cluster_duplicates_distributed(
        rd.from_pandas(chain), num_buckets=4).to_pandas()
    assert set(got_c["cluster"]) == {0} and len(got_c) == 9

    # num_buckets=1 must work (clamped to 2 internally: ray's
    # num_returns=1 returns a bare ref, which broke the fan-out)
    got_1 = dedup.cluster_duplicates_distributed(
        rd.from_pandas(pairs), num_buckets=1).to_pandas()
    assert dict(zip(got_1["doc_id"], got_1["cluster"])) == w


def test_cluster_duplicates_distributed_large_pair_set_stays_off_driver():
    """Web-crawl-shaped planted pair set (many blocks, 200k edges, mixed
    chain + star components): the edge-routing front runs entirely in
    remote tasks, so the DRIVER'S resident set must not grow with the pair
    count (pre-fix it pulled every edge block via ray.get and np.unique'd
    all node ids driver-side). Correctness is asserted against closed-form
    components; driver footprint by RSS delta with generous slack (the
    pair tables total ~3 MB; a driver materialization of edges + nodes +
    per-round candidates would add tens of MB)."""
    import resource

    n = 200_000
    ids = np.arange(n, dtype=np.int64)
    # components of 8 consecutive ids: chain edges (i, i-1) for i%8 != 0
    keep = ids % 8 != 0
    pairs = pd.DataFrame({"doc_id": ids[keep], "dup_of": ids[keep] - 1})
    ds = rd.from_pandas(pairs).repartition(16)  # many blocks → many routes

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    got = dedup.cluster_duplicates_distributed(ds, num_buckets=8)
    # consume distributed: per-shard assertions inside map_batches, only
    # tiny (rows, bad) partials reach the driver
    def check(t):
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        c = t["cluster"].to_numpy(zero_copy_only=False)
        return pa.table({"rows": pa.array([len(t)], pa.int64()),
                         "bad": pa.array([int((c != d - (d % 8)).sum())],
                                         pa.int64())})
    parts = got.map_batches(check, batch_format="pyarrow").to_pandas()
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # every id appears in some pair (8k as a dup_of, 8k+1..8k+7 as doc_ids)
    assert int(parts["rows"].sum()) == n
    assert int(parts["bad"].sum()) == 0
    # peak-RSS delta (KiB): generous 100 MiB slack — a driver-side edge
    # materialization of this graph plus per-round candidates exceeds it
    assert rss_after - rss_before < 100 * 1024


def test_lsh_multiprobe_recall_beats_single_probe():
    df = synth_embeddings(400, 16, seed=9)
    ds = rd.from_pandas(df)
    q = df[df["vec_id"] < 4]
    exact = ann.brute_force_topk(ds, q, k=5).to_pandas()
    def recall(out):
        tot, hit = 0, 0
        for qid in q["vec_id"]:
            e = set(exact[exact["query_id"] == qid]["vec_id"])
            a = set(out[out["query_id"] == qid]["vec_id"])
            tot += len(e)
            hit += len(e & a)
        return hit / tot
    single = recall(ann.lsh_topk(ds, q, k=5, probe_flips=0).to_pandas())
    multi = recall(ann.lsh_topk(ds, q, k=5, probe_flips=1).to_pandas())
    multi2 = recall(ann.lsh_topk(ds, q, k=5, probe_flips=2).to_pandas())
    # recall grows monotonically with the probe radius (measured
    # 0.05 / 0.25 / 0.5 on this fixture — random gaussians are the
    # LSH-hardest case; planted near-dups are found at flips=1)
    assert single <= multi <= multi2
    assert multi2 >= 0.4, (single, multi, multi2)


def test_brute_force_topk_sharded_final_many_queries():
    # n_queries >= 256 takes the query-hash-sharded exchange final instead
    # of the single coalesced combine — results must be identical in shape
    # and content
    df = synth_embeddings(400, 8)
    ds = rd.from_pandas(df).repartition(4)
    out = ann.brute_force_topk(ds, df, k=3).to_pandas()
    assert len(out) == 400 * 3
    assert out.groupby("query_id").size().eq(3).all()
    mat = np.stack(df["embedding"].to_numpy())
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for qid in (0, 137, 399):
        sims = unit @ unit[qid]
        sims[qid] = -np.inf
        expect = set(np.argsort(-sims)[:3])
        got = set(out[out["query_id"] == qid]["vec_id"])
        assert got == expect


def test_approx_quantiles_error_bound():
    from go_tfdata_ray.functions.sketch import approx_quantiles

    rng = np.random.default_rng(13)
    vals = rng.standard_normal(50_000) * 100
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    qs = {"p10": 0.1, "p50": 0.5, "p90": 0.9, "p99": 0.99}
    est = approx_quantiles(ds, "v", qs, n_bins=4096)
    bin_w = (vals.max() - vals.min()) / 4096
    for name, q in qs.items():
        truth = np.quantile(vals, q)
        assert abs(est[name] - truth) <= 2 * bin_w, (name, est[name], truth)


def test_approx_quantiles_per_group_error_bound():
    from go_tfdata_ray.functions.sketch import approx_quantiles_per_group

    rng = np.random.default_rng(17)
    n = 40_000
    g = rng.integers(0, 5, n)
    v = rng.standard_normal(n) * (g + 1) * 10 + g * 100  # distinct ranges
    ds = rd.from_pandas(pd.DataFrame({"g": g, "v": v})).repartition(6)
    qs = {"p25": 0.25, "p50": 0.5, "p95": 0.95}
    out = approx_quantiles_per_group(ds, "g", "v", qs, n_bins=1024).to_pandas()
    assert len(out) == 5
    for _, row in out.iterrows():
        sub = v[g == row["g"]]
        bin_w = (sub.max() - sub.min()) / 1024
        for name, q in qs.items():
            truth = np.quantile(sub, q)
            assert abs(row[name] - truth) <= 2 * bin_w, (row["g"], name)


def test_profile_one_pass():
    from go_tfdata_ray.functions.profile import profile

    df = pd.DataFrame({
        "k": np.arange(1000, dtype=np.int64) % 100,
        "f": np.linspace(-5.0, 5.0, 1000),
        "s": [f"name-{i % 37}" for i in range(1000)],
        "toks": [list(range(i % 9)) for i in range(1000)],
    })
    df.loc[::10, "f"] = np.nan
    ds = rd.from_pandas(df).repartition(6)
    out = profile(ds).set_index("column")
    assert (out["rows"] == 1000).all()
    k = out.loc["k"]
    assert k["min"] == 0 and k["max"] == 99
    assert abs(k["approx_ndv"] - 100) <= 5  # HLL p=12 ~1.6% error
    f = out.loc["f"]
    # pandas NaN arrives as arrow null after the pandas->arrow block cast
    assert abs(f["null_rate"] - 0.1) < 1e-9
    s = out.loc["s"]
    assert s["kind"] == "string" and abs(s["approx_ndv"] - 37) <= 3
    assert s["min"] == len("name-0") and s["max"] == len("name-36")
    t = out.loc["toks"]
    assert t["kind"] == "list_len" and t["min"] == 0 and t["max"] == 8
    assert np.isnan(t["approx_ndv"])


def test_empty_inputs_do_not_crash_coalesce_consumers():
    # zero candidate pairs / empty filters route through the map_batches
    # fallback instead of calling fn on a schemaless 0-column table
    from go_tfdata_ray.functions.profile import profile
    from go_tfdata_ray.stages import relational as rel

    pairs = rd.from_pandas(pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                         "dup_of": pd.Series(dtype=np.int64)}))
    assert dedup.cluster_duplicates(pairs).count() == 0
    df = pd.DataFrame({"v": np.arange(10, dtype=np.int64),
                       "id": np.arange(10, dtype=np.int64)})
    ds = rd.from_pandas(df).filter(lambda r: r["v"] > 100)
    assert rel.topk_global(ds, "v", k=3, tie_col="id").count() == 0
    empty = rd.from_pandas(pd.DataFrame({"a": pd.Series(dtype=np.int64)}))
    assert len(profile(empty)) == 0


def test_approx_ndv_per_group_error_bound():
    from go_tfdata_ray.functions.sketch import approx_ndv_per_group

    rng = np.random.default_rng(23)
    n = 30_000
    g = rng.integers(0, 4, n)
    # distinct cardinality differs per group: group i draws from 100*(i+1)**2 values
    v = np.array([rng.integers(0, 100 * (gi + 1) ** 2) for gi in g])
    df = pd.DataFrame({"g": g, "v": v})
    ds = rd.from_pandas(df).repartition(5)
    out = approx_ndv_per_group(ds, "g", "v").to_pandas().set_index("g")
    for gi in range(4):
        exact = df[df["g"] == gi]["v"].nunique()
        got = out.loc[gi, "approx_ndv"]
        assert abs(got - exact) <= max(0.05 * exact, 3), (gi, got, exact)


def test_hash_list_column_sensitivity():
    """Content hash for list<int32>: equal content ⇒ equal hash; order,
    length, trailing zeros, empty-vs-null all distinguish; slices agree."""
    import numpy as np
    import pyarrow as pa

    from go_tfdata_ray.functions.dedup import hash_list_column

    a = pa.chunked_array([
        pa.array([[1, 2, 3], [3, 2, 1], [1, 2], [], [1, 2, 3], None,
                  [1, 2, 3, 0]], pa.list_(pa.int32())),
        pa.array([[1, 2, 3]], pa.list_(pa.int32())),
    ])
    h = hash_list_column(a, salt=5)
    assert h[0] == h[4] == h[7]
    assert len({h[0], h[1], h[2], h[3], h[5], h[6]}) == 6
    sl = a.combine_chunks().slice(2, 4)
    assert np.array_equal(hash_list_column(sl, salt=5), h[2:6])
    assert not np.any(h == hash_list_column(a, salt=9))


def test_duplicate_keys_token_lists():
    """duplicate_keys enumerates exactly the non-minimal keys per distinct
    token array (brute-force cross-check)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from go_tfdata_ray.functions.dedup import duplicate_keys

    rng = np.random.default_rng(3)
    contents = [rng.integers(0, 99, rng.integers(0, 8)).tolist()
                for _ in range(25)]
    docs = [f"d{i:03d}" for i in range(150)]
    toks = [contents[i % 25] for i in range(150)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(docs),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
    }))
    got = duplicate_keys(ds, num_shards=8).to_pandas()
    winners, want_losers = {}, {}
    for d, tk in zip(docs, toks):
        k = tuple(tk)
        if k in winners:
            want_losers[d] = winners[k]
        else:
            winners[k] = d
    assert dict(zip(got["doc_id"], got["dup_of"])) == want_losers
    by_content = {}
    for tk in toks:
        by_content[tuple(tk)] = by_content.get(tuple(tk), 0) + 1
    assert all(by_content[tuple(toks[int(d[1:])])] == n
               for d, n in zip(got["doc_id"], got["n_copies"]))


def test_token_minhash_estimates_kgram_jaccard():
    """TokenMinHasher's signature agreement estimates the TRUE k-gram
    Jaccard of the token sequences (deterministic seeds: mean error ≈0.03
    at n_perm=128, bounded here with slack)."""
    import numpy as np

    from go_tfdata_ray.functions.dedup import TokenMinHasher

    tm = TokenMinHasher("tokens", "doc_id", k=5, n_perm=128)
    rng = np.random.default_rng(5)

    def kgrams(t, k=5):
        return {tuple(t[i:i + k]) for i in range(len(t) - k + 1)}

    errs = []
    for _ in range(30):
        n = int(rng.integers(50, 400))
        a = rng.integers(0, 1000, n).tolist()
        b = list(a)
        for _ in range(int(rng.integers(0, n // 4))):
            b[int(rng.integers(0, n))] = int(rng.integers(0, 1000))
        ga, gb = kgrams(a), kgrams(b)
        true_j = len(ga & gb) / len(ga | gb)
        sa, sb = tm.batch_signatures([a, b])
        errs.append(abs((sa == sb).mean() - true_j))
    assert np.mean(errs) < 0.06 and np.max(errs) < 0.2
    # identical and disjoint extremes are exact
    x = rng.integers(0, 1000, 100).tolist()
    y = (rng.integers(0, 1000, 100) + 5000).tolist()
    sx, sx2, sy = tm.batch_signatures([x, list(x), y])
    assert (sx == sx2).all() and (sx == sy).mean() < 0.05
