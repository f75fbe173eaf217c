"""Decontamination op: n-gram overlap vs an eval set — exact/Bloom filter
parity, doc-boundary masking, distinct-gram semantics, drop mode."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from go_tfdata_ray.functions import decontaminate as decon


def _corpus():
    ev = pd.DataFrame({
        "doc_id": [0, 1],
        "text": [
            "alpha beta gamma delta epsilon zeta",
            "one two three four five",
        ],
    })
    train = pd.DataFrame({
        "doc_id": [10, 11, 12, 13, 14],
        "text": [
            # full copy of eval doc 0: every 3-gram hits (4 distinct)
            "alpha beta gamma delta epsilon zeta",
            # one overlapping 3-gram ("beta gamma delta"), rest clean
            "intro words beta gamma delta outro words",
            # shares WORDS but no 3-gram window
            "alpha gamma beta epsilon delta zeta",
            # too short for any 3-gram
            "alpha beta",
            # entirely clean
            "completely unrelated text about engines and pipelines",
        ],
    })
    return ev, train


def _flags(filt, train):
    out = decon.flag_contamination(
        rd.from_pandas(train), filt).to_pandas().set_index("doc_id")
    return out


def test_exact_flagging_and_boundary_masking():
    ev, train = _corpus()
    filt = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    assert filt["mode"] == "exact"
    out = _flags(filt, train)
    assert out.loc[10, "n_hits"] == 4 and bool(out.loc[10, "contaminated"])
    assert out.loc[11, "n_hits"] == 1 and bool(out.loc[11, "contaminated"])
    # word overlap without a shared 3-gram window must NOT flag
    assert out.loc[12, "n_hits"] == 0 and not bool(out.loc[12, "contaminated"])
    # shorter than n: zero grams, never contaminated
    assert out.loc[13, "n_grams"] == 0 and out.loc[13, "n_hits"] == 0
    assert out.loc[14, "n_hits"] == 0
    # n_grams counts DISTINCT grams per doc
    assert out.loc[10, "n_grams"] == 4


def test_cross_doc_windows_never_fire():
    # the flat word-hash array puts doc A's tail next to doc B's head;
    # a window spanning the boundary would fabricate "alpha beta gamma"
    ev = pd.DataFrame({"doc_id": [0], "text": ["alpha beta gamma"]})
    train = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["unrelated tail alpha beta", "gamma head unrelated"],
    })
    filt = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    out = _flags(filt, train)
    assert int(out["n_hits"].sum()) == 0


def test_bloom_path_matches_exact_path():
    ev, train = _corpus()
    exact = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    bloom = decon.build_eval_filter(rd.from_pandas(ev), n=3, max_exact=0)
    assert bloom["mode"] == "bloom"
    a = _flags(exact, train)
    b = _flags(bloom, train)
    # Bloom can only ever OVER-flag; on this tiny fixture FP prob ~0
    pd.testing.assert_frame_equal(a, b)


def test_decontaminate_drops_only_contaminated():
    ev, train = _corpus()
    filt = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    kept = decon.decontaminate(
        rd.from_pandas(train), filt).to_pandas()["doc_id"].tolist()
    assert sorted(kept) == [12, 13, 14]
    # min_hits raises the bar: the single-gram overlap (doc 11) survives
    kept2 = decon.decontaminate(
        rd.from_pandas(train), filt, min_hits=2).to_pandas()["doc_id"].tolist()
    assert sorted(kept2) == [11, 12, 13, 14]


def test_deterministic_across_calls():
    ev, train = _corpus()
    f1 = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    f2 = decon.build_eval_filter(rd.from_pandas(ev), n=3)
    assert np.array_equal(f1["hashes"], f2["hashes"])
