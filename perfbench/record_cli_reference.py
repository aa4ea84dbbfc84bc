#!/usr/bin/env python3
"""Record the reference output of the fixed cli-builtins commands.

    python3 perfbench/record_cli_reference.py

Writes perfbench/data/cli_reference.json: command line -> [exit code,
stdout, stderr].  Re-record only on purpose, after checking the new output
by hand; the benchmark compares every run against this file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(REPO, "src"), REPO]

from perfbench import workloads  # noqa: E402


def main() -> int:
    os.chdir(REPO)
    os.environ.pop("EQUICART_SEED", None)
    table = {
        " ".join(argv): list(workloads.run_cli(argv))
        for argv in workloads.fixed_cli_commands()
    }
    with open(workloads.CLI_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} commands in {os.path.relpath(workloads.CLI_REFERENCE, REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
