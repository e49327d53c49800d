"""Local correctness gate: run every queries() entry and compare it
against its oracle_sql() query in DuckDB (row count, column names,
order-insensitive values). The oracles read Parquet that oracle_sql()
materializes from the single-process run. Exits 1 if any entry mismatches
or errors. Usage:

    python scripts/check_correctness.py [sf_dir] [name,name,...]

sf_dir defaults to sf0.01; the optional second argument limits the run to
the named queries.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
# build the oracles at the replay scale too (the driver's gate leaves this
# unset and pins sf0.01)
os.environ.setdefault("GRAFT_ORACLE_SF_DIR", SF_DIR)
ONLY = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    import duckdb
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as e

    con = duckdb.connect()
    qs = e.queries()
    sqls = e.oracle_sql()
    results = {name: "UNKNOWN: no such queries() entry" for name in (ONLY or set()) - set(qs)}
    for name, fn in qs.items():
        if ONLY is not None and name not in ONLY:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(SF_DIR)))
        except Exception as ex:
            results[name] = f"RAY-ERROR: {ex}"
            print(name, results[name])
            continue
        try:
            want = canon(con.execute(sqls[name]).fetchdf())
        except Exception as ex:
            results[name] = f"SQL-ERROR: {ex}"
            print(name, results[name])
            continue
        ok_rows = len(got) == len(want)
        ok_cols = list(got.columns) == list(want.columns)
        ok_vals = ok_rows and ok_cols and got.equals(want)
        if not ok_vals and ok_rows and ok_cols:
            # tolerate dtype-level mismatch, compare as strings
            ok_vals = got.astype(str).equals(want.astype(str))
        results[name] = (
            f"{'OK' if ok_vals else 'MISMATCH'} rows={len(got)}/{len(want)} "
            f"cols_ok={ok_cols} ({time.time()-t0:.1f}s)"
        )
        print(name, results[name])
        if not ok_vals and ok_rows and ok_cols:
            print("   first rows got:", got.head(2).to_dict("records"))
            print("   first rows want:", want.head(2).to_dict("records"))
    bad = {k: v for k, v in results.items() if not v.startswith("OK")}
    print(json.dumps({"total": len(results), "bad": bad}, ensure_ascii=False, indent=1))
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
