"""Tests for the generic object-store exchange group-map — the drop-in
replacement for ``groupby("_shard").map_groups(fn)`` used by every
shard-grouped finalize in the repo (distinct / sessionize / rolling /
quantiles / dedup finals)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from go_tfdata_ray.stages.exchange import exchange_group_map


def _mk_ds(n=1000, num_shards=8, blocks=5):
    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 50, n),
            "v": rng.integers(0, 1000, n).astype(np.int64),
        }
    )
    df["_shard"] = (df["k"] % num_shards).astype(np.int64)
    return rd.from_pandas(df).repartition(blocks), df


def _mk_agg():
    # defined per-call so cloudpickle serializes by VALUE — a module-level
    # fn in a test file pickles by reference, which Ray workers can't import
    def _agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", sort=False, as_index=False)["v"].sum()
    return _agg


def test_parity_with_groupby_map_groups():
    ds, df = _mk_ds()
    got = (
        exchange_group_map(ds, _mk_agg(), num_shards=8)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k", sort=False, as_index=False)["v"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_fn_sees_whole_shard_not_per_batch():
    # each shard's fn must see ALL rows of the shard in one call — a
    # per-batch call would produce duplicate k groups after the sum
    ds, df = _mk_ds(n=2000, num_shards=4, blocks=10)
    got = exchange_group_map(ds, _mk_agg(), num_shards=4).to_pandas()
    assert got["k"].is_unique


def test_empty_shards_skipped_and_schema_stable():
    # only shard 3 is populated; fn output schema must stay int64 even
    # though unpopulated shards never run fn
    df = pd.DataFrame({"k": [3, 3, 3], "v": [1, 2, 3]})
    df["_shard"] = 3
    ds = rd.from_pandas(df).repartition(2)
    out = exchange_group_map(ds, _mk_agg(), num_shards=16)
    t = out.to_pandas()
    assert t["v"].dtype == np.int64 and t["v"].iloc[0] == 6


def test_empty_fn_output_blocks_dropped():
    # fn returns an EMPTY frame for odd shards, built from Python lists
    # (float64-typed) — those blocks must be dropped, not poison the schema
    df = pd.DataFrame({"k": np.arange(8), "v": np.ones(8, dtype=np.int64)})
    df["_shard"] = (df["k"] % 4).astype(np.int64)
    ds = rd.from_pandas(df).repartition(3)

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if int(g["_shard"].iloc[0]) % 2 == 1:
            return pd.DataFrame({"k": [], "v": []})  # float64 when empty
        return g.groupby("k", sort=False, as_index=False)["v"].sum()

    out = exchange_group_map(ds, fn, num_shards=4).to_pandas()
    assert out["v"].dtype == np.int64
    assert sorted(out["k"]) == [0, 2, 4, 6]


def test_empty_input_falls_back():
    df = pd.DataFrame({"k": pd.Series(dtype=np.int64),
                       "v": pd.Series(dtype=np.int64),
                       "_shard": pd.Series(dtype=np.int64)})
    ds = rd.from_pandas(df)
    out = exchange_group_map(ds, _mk_agg(), num_shards=4)
    assert out.count() == 0


def test_custom_shard_col_and_pyarrow_format():
    df = pd.DataFrame({"k": np.arange(20) % 5, "v": np.arange(20, dtype=np.int64)})
    df["bucket"] = (df["k"] % 3).astype(np.int64)
    ds = rd.from_pandas(df).repartition(4)

    def fn(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate([("v", "sum")])

    out = exchange_group_map(
        ds, fn, num_shards=3, shard_col="bucket", batch_format="pyarrow"
    ).to_pandas()
    want = df.groupby("k", as_index=False)["v"].sum().rename(columns={"v": "v_sum"})
    got = out.sort_values("k").reset_index(drop=True)[["k", "v_sum"]]
    pd.testing.assert_frame_equal(got, want.sort_values("k").reset_index(drop=True))


def test_coalesce_map_combines_all_blocks():
    from go_tfdata_ray.stages.exchange import exchange_coalesce_map

    df = pd.DataFrame({"k": np.arange(100) % 7, "v": np.ones(100, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(9)

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", sort=False, as_index=False)["v"].sum()

    out = exchange_coalesce_map(ds, agg).to_pandas()
    assert out["k"].is_unique and out["v"].sum() == 100


def test_combine_partials_fanout_is_final():
    # fanout shards by GROUP KEY hash: each group must appear exactly once
    from go_tfdata_ray.stages.relational import combine_partials

    df = pd.DataFrame({"g": np.arange(400) % 37, "n": np.ones(400, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(10)
    out = combine_partials(ds, ["g"], ["n"], fanout=8).to_pandas()
    assert out["g"].is_unique and len(out) == 37 and out["n"].sum() == 400


def test_group_map_block_count_crossover_coalesces_and_stays_on_exchange():
    # past max_exchange_blocks the input is REPARTITIONED down and the
    # routing stays on the exchange path (NOT Ray's groupby sort-shuffle) —
    # results must be identical
    df = pd.DataFrame({"k": np.arange(60) % 6, "v": np.ones(60, dtype=np.int64)})
    df["_shard"] = (df["k"] % 4).astype(np.int64)
    ds = rd.from_pandas(df).repartition(5)
    out = exchange_group_map(ds, _mk_agg(), num_shards=4,
                             max_exchange_blocks=2).to_pandas()
    want = df.groupby("k", sort=False, as_index=False)["v"].sum()
    got = out.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "v"]],
                                  want.sort_values("k").reset_index(drop=True))

    # exchange-path-only semantics survive the crossover: out-of-range
    # shard values raise the route task's loud contract error (Ray's
    # groupby would have silently grouped them)
    bad = df.copy()
    bad.loc[0, "_shard"] = 9
    with pytest.raises(Exception, match=r"outside \[0, 4\)"):
        exchange_group_map(rd.from_pandas(bad).repartition(5), _mk_agg(),
                           num_shards=4, max_exchange_blocks=2).to_pandas()


def test_group_map_crosses_real_block_threshold():
    """Exercise the crossover at the REAL default threshold (>4096 input
    blocks → coalesce to 2048 and exchange), oracle-checked. ~20 s: the
    cost IS the 4200-block metadata pressure the crossover exists for."""
    n_blocks, rows = 4200, 40
    ds = rd.range(n_blocks * rows, override_num_blocks=n_blocks)

    def add(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        return pa.table({"k": ids % 37,
                         "v": np.ones(len(ids), dtype=np.int64),
                         "_shard": (ids % 8).astype(np.int64)})

    out = exchange_group_map(
        ds.map_batches(add, batch_format="pyarrow"), _mk_agg(), num_shards=8
    ).to_pandas()
    got = (out.groupby("k", as_index=False)["v"].sum()
           .sort_values("k").reset_index(drop=True))
    want_counts = np.bincount(np.arange(n_blocks * rows) % 37).astype(np.int64)
    assert list(got["k"]) == list(range(37))
    assert list(got["v"]) == list(want_counts)
