#!/usr/bin/env python3
"""Record perfbench/reference.json: the outputs of every workload on the default seed.

    python3 perfbench/record_reference.py

Run from the root of a source checkout at the commit whose outputs are
the reference. The benchmark compares later commits with this file on
the default seed, at the tolerance in workloads.log_tolerance.
"""

import json
import sys
import tempfile

from run import DEFAULT_SEED, REFERENCE, SRC

sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402


def main() -> int:
    entries = {}
    for w in wl.WORKLOADS.values():
        gate = wl.Gate()
        with tempfile.TemporaryDirectory(dir=REFERENCE.parent.parent) as tmp:
            inputs = wl.prepare(w, DEFAULT_SEED, wl.Path(tmp))
            out = {
                "bundle": [wl.bundle_step(w, DEFAULT_SEED)(j) for j in range(w.min_bundles)],
                "fit": [wl.fit_step(inputs)(i) for i in range(3)],
                "select": [wl.select_step(inputs)(i) for i in range(3)],
            }
            jobs = [wl.job_step(w, inputs, gate)(0)]
            wl.check_phases(w, gate, out)
        if gate.wrong:
            print(f"{w.name}: outputs fail the gate: {gate.wrong}", file=sys.stderr)
            return 1
        entries[w.name] = wl.reference_entry(inputs, out["bundle"], out["fit"], out["select"], jobs)
        print(f"{w.name}: recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
