"""The CSV artifacts: a header row, then rows of numbers.

Every value is written as "%.17g", the text of format(v, ".17g"), which
reads back to the same double, and every line ends in "\r\n": the bytes
csv.writer's default dialect gives, since no such field needs quoting.
Each row is one formatting of a "%.17g,...,%.17g" template with one field
per header name, and the lines are written at once.
"""

from __future__ import annotations

import numpy as np


def write_csv(path, header, columns) -> None:
    """Write ``header`` and one row per entry of the equal-length ``columns``."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % row for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
