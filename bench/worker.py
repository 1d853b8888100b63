"""One fresh benchmark process: set-up, self-check, timed loop or traced pass.

Usage: python3 worker.py {setup|loop|trace} WORKDIR [SECONDS]

WORKDIR holds ``plan.json`` (written by ``run.py``) and the CLI input
files. The set-up clock starts just before ``import cplogic`` and stops
once every theory and story of the workload is parsed and validated.
Only ``json``, ``os``, ``sys``, ``time`` and the import-free ``inputs``
are loaded before it. The last line of stdout is one JSON object for
``run.py``.
"""

import json
import os
import sys
import time

from inputs import load_inputs


def main() -> int:
    mode, workdir = sys.argv[1], sys.argv[2]
    seconds = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    os.chdir(workdir)
    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    start = time.perf_counter()
    import cplogic
    load_inputs(cplogic, plan)
    setup_s = time.perf_counter() - start

    where = os.path.dirname(os.path.realpath(cplogic.__file__))
    if where != os.path.join(os.path.realpath(plan["src"]), "cplogic"):
        print(f"imported cplogic from {where}, not from the checkout", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import cplogic.cli  # noqa: F401  (in-process CLI ops and the tracer need it)
    from ops import Runner

    runner = Runner(cplogic, plan)
    result = runner.trace() if mode == "trace" else runner.loop(seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
