#!/usr/bin/env python3
"""File-based workflow: AIGER round-trips, sweeping, CLI-style checking.

Mirrors how the library is used from the shell (`python -m repro ...`)
but as a script: generate a benchmark design, write it as both ASCII and
binary AIGER, reload it, sweep it with random simulation, then run
JA-verification with the cone-of-influence front end and export a JSON
report.

Run:  python examples/aiger_workflow.py
"""

import json
import os
import tempfile

from repro import TransitionSystem
from repro.circuit import load_aag, load_aig, save_aag, save_aig
from repro.gen import FAILING_SPECS
from repro.multiprop import ja_verify, sweep
from repro.session import VerificationConfig


def main() -> None:
    design = FAILING_SPECS["f258"].build()
    with tempfile.TemporaryDirectory() as tmp:
        ascii_path = os.path.join(tmp, "f258.aag")
        binary_path = os.path.join(tmp, "f258.aig")

        # --- persist in both AIGER flavours ---------------------------
        save_aag(design, ascii_path)
        save_aig(design, binary_path)
        ascii_size = os.path.getsize(ascii_path)
        binary_size = os.path.getsize(binary_path)
        print(f"wrote {ascii_path} ({ascii_size} bytes)")
        print(f"wrote {binary_path} ({binary_size} bytes, "
              f"{ascii_size / binary_size:.1f}x smaller)")

        # --- reload and confirm the two formats agree --------------------
        from_ascii = load_aag(ascii_path)
        from_binary = load_aig(binary_path)
        assert from_ascii.stats() == from_binary.stats()
        print(f"reloaded: {from_binary!r}")
        print()

        ts = TransitionSystem(from_binary)

        # --- simulation sweep first (no SAT) ---------------------------
        swept = sweep(ts, runs=32, depth=48, seed=0)
        print(
            f"sweep: {len(swept.failed)} properties refuted by random "
            f"simulation ({swept.frames_simulated} frames simulated), "
            f"{len(swept.survivors)} survivors"
        )
        for name, trace in sorted(swept.failed.items()):
            print(f"  {name}: witness of depth {len(trace)}")
        print()

        # --- JA-verification with the COI front end --------------------
        report = ja_verify(
            ts, VerificationConfig(coi_reduction=True, design_name="f258")
        )
        print(report.summary())
        print(f"debugging set: {report.debugging_set()}")

        # --- machine-readable export -----------------------------------
        json_path = os.path.join(tmp, "report.json")
        payload = {
            "design": "f258",
            "debugging_set": report.debugging_set(),
            "outcomes": {
                name: outcome.status.value
                for name, outcome in report.outcomes.items()
            },
        }
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {json_path} ({os.path.getsize(json_path)} bytes)")


if __name__ == "__main__":
    main()
