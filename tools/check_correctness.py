"""Driver-sim: run every queries() entry and its oracle_sql() side-by-side
at a given sf and compare row-count + schema + order-insensitive values.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].map(
                lambda v: tuple(v) if isinstance(v, (list, np.ndarray)) else v
            )
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"rows {len(ray_df)} != {len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"cols {sorted(ray_df.columns)} != {sorted(sql_df.columns)}")
        return problems
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        if str(a[c].dtype) != str(b[c].dtype):
            problems.append(f"dtype[{c}] {a[c].dtype} != {b[c].dtype}")
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(a[c].dtype, np.floating):
                ok = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True)
            else:
                ok = (pd.isna(av) == pd.isna(bv)).all() and (
                    (av == bv) | pd.isna(av)
                ).all()
            if not ok:
                bad = np.nonzero(~((av == bv) | (pd.isna(av) & pd.isna(bv))))[0][:3]
                problems.append(f"values[{c}] differ at rows {bad.tolist()}: "
                                f"{[ (av[i], bv[i]) for i in bad ]}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count())), include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    qs, sqls = E.queries(), E.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows)")
            continue
        try:
            sql_df = con.sql(sqls[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle sql raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"PASS {name}: {len(ray_df)} rows")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
