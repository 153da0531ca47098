"""Write expected.json: the sha256 of every op output that completes.

    python3 perfbench/record.py

Runs the enum pipeline on every input of the su2-levels and products
bands, and acceptance.run_all() once, with the same calls and pinned
environment as the benchmark.  An output is recorded only when it also
passes the A-D-E check (or, for verify-all, when every criterion
passes).  The file in the repository was written at commit 5f1bee1;
re-recording it after a change defeats the byte-identity check, so do
it only when the reference itself must change.
"""

from __future__ import annotations

import json
import os
import sys

from run import PINNED_ENV

if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    ops = [inputs.su2_op(k, "") for k in range(4, 57)]
    ops += [inputs.product_op(a, b, "") for a, b in inputs.product_pairs(9, 51)]
    plain = tracing.NullTracer()
    checks.EXPECTED = {"enum": {}, "verify-all": None}
    enum = {}
    for op in ops:
        worker.prepare(op, plain)
        try:
            text = worker.enum_op(op, plain)
        except Exception as exc:                  # noqa: BLE001 - reported
            print(f"{op['id']}: {type(exc).__name__}", flush=True)
            continue
        reason = checks.check_enum(op, text)
        if reason is not None:
            raise SystemExit(f"{op['id']}: {reason}; not recorded")
        enum[op["id"]] = checks.sha256(text)
        print(f"{op['id']}: {enum[op['id']]}", flush=True)
    text = worker.verify_op(None, plain)
    if " FAIL " in text:
        raise SystemExit("verify-all has failing criteria; not recorded")
    out = {"enum": enum, "verify-all": checks.sha256(text)}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
