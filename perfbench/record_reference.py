#!/usr/bin/env python3
"""Records perfbench/reference.json: the experiment-table digests, the
per-phase work counts and the findings tally of one study run per scale,
fault profile, schedule (task graph, or the phases forced serially as the
traced run does) and reference world. Rerun only when the study's output
changes on purpose, and review the diff:

    python3 perfbench/record_reference.py
"""

import json
import os

import run


def main():
    binary = run.build()
    reference = {}
    for scale in ("quick", "full"):
        for faults in ("off", "canonical"):
            spec = {"binary": "study", "faults": faults, "journal": False}
            for serial in (False, True):
                for seed in run.WORLD_SEEDS:
                    rep = run.run_rep(binary, spec, seed, scale, serial=serial)
                    where = f"{scale} {faults} {run.schedule(serial)} world {seed}"
                    if rep["failed"]:
                        raise SystemExit(f"{where}: {rep['failures']}")
                    tables = {name[len("table."):]: digest
                              for name, digest in rep["digests"].items()
                              if name.startswith("table.")}
                    counts = {name: value for name, value in rep["counts"].items()
                              if name.startswith(("work.", "findings."))}
                    reference.setdefault(scale, {}).setdefault(faults, {}).setdefault(
                        run.schedule(serial), {})[str(seed)] = {"tables": tables,
                                                                "counts": counts}
                    print(f"recorded {where}", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
