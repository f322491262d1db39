"""Cross-scale oracle sweep: run EVERY oracled driver entry against its
DuckDB twin at an arbitrary sf dir (the driver gate and the in-suite
replica both pin sf0.01; this tool catches scale-dependent divergence).

    python tools/oracle_sweep.py [sf_dir] [num_cpus]

Prints one line per entry and a FAILED summary; exit code 1 on any
mismatch."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    # comma-separated skip list for oracles that are O(n^2) SQL at the
    # larger scales (e.g. dedup_simhash at sf0.1)
    skip = set((sys.argv[3] if len(sys.argv) > 3 else "").split(",")) - {""}

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=cpus,
            include_dashboard=False,
            log_to_driver=False,
        )
    import duckdb
    import pandas as pd

    import __ray_entry__ as em

    tables = (
        "region nation customer supplier part orders lineitem events "
        "documents".split()
    )
    con = duckdb.connect()
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )

    def canon(pdf: "pd.DataFrame") -> "pd.DataFrame":
        pdf = pdf[sorted(pdf.columns)]
        pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
        for c in pdf.columns:
            if pd.api.types.is_integer_dtype(pdf[c]):
                pdf[c] = pdf[c].astype("int64")
        return pdf

    qs, sqls = em.queries(), em.oracle_sql()
    bad: list[str] = []
    for name in sorted(sqls):
        if name in skip:
            print(f"SKIP {name}", flush=True)
            continue
        try:
            t0 = time.time()
            got = qs[name](sf)
            got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
            want = con.execute(sqls[name]).df()
            g, w = canon(got), canon(want)
            ok = list(g.columns) == list(w.columns) and len(g) == len(w)
            if ok:
                try:
                    pd.testing.assert_frame_equal(g, w, check_dtype=False)
                except AssertionError:
                    ok = False
            if not ok:
                bad.append(name)
            print(
                f"{'OK ' if ok else 'MISMATCH'} {name} "
                f"rows={len(g)}/{len(w)} {time.time() - t0:.1f}s",
                flush=True,
            )
        except Exception as e:  # noqa: BLE001 - sweep must not stop
            bad.append(name)
            print(f"ERR {name}: {type(e).__name__}: {str(e)[:150]}", flush=True)
    print("FAILED:", bad)
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
