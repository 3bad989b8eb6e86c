"""The one writer of rtstab's artifacts, which keeps every file deterministic:
a CSV table by write_csv and a JSON document by write_json."""

import json

import numpy as np


def write_json(obj, path) -> None:
    """JSON with sorted keys, indent 2, round-trip floats and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: str, columns) -> None:
    """The header (one line or more), then one row per index of the equally
    long columns.  Each column takes one format from its dtype: %.17g for
    floats, which round-trips, true/false for booleans, str for the rest."""
    cols = [np.asarray(c) for c in columns]
    fmt = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    rows = zip(*[(np.where(c, "true", "false") if c.dtype == bool else c).tolist()
                 for c in cols])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(fmt % row for row in rows))
