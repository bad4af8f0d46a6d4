"""Record the stdout digest of every default-seed command in `digests.json`.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are known to be right: it refuses to
record a command whose output fails its independent check.  The benchmark
then requires these exact bytes from every later commit.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import torsig.cli as cli

    digests = {}
    for name in workloads.WORKLOADS:
        commands = workloads.build(name, workloads.DEFAULT_SEED)
        _, _, results = run.run_pass(cli, commands, keep=True)
        for argv, (code, digest, _, err, _, text) in zip(commands, results):
            _, failed, reasons = check.check_command(argv, code, text, err)
            if failed:
                print(f"error: {' '.join(argv)}: {reasons}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = digest
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
