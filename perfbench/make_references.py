"""Regenerate ``perfbench/references.json`` for the default seed.

    python3 perfbench/make_references.py

Every point is simulated with the dense per-cycle loop
(``Simulator.run(dense=True)``; ``REPRO_DENSE_LOOP=1`` for the figure
commands), so the references never come from the event-driven
scheduler they check.  The figure digests cover the whole stdout of
``repro figure <artefact>``.  Takes several minutes.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="refs-", dir=str(run.WORK)))
    try:
        env = run.hermetic_env(tmp)
        os.environ.clear()
        os.environ.update(env)
        sys.path.insert(0, str(run.SRC))
        points = {}
        for name in run.COLD:
            sweep = run.ColdSweep(name, run.DEFAULT_SEED, tmp)
            points.update(sweep.expected({"points": {}}))
        warm = run.EvalWarm(run.DEFAULT_SEED, tmp, env)
        for key, spec, _text, defense in warm.warm:
            points[key] = run.dense_reference(
                spec, defense, run.WARM_SCALE, run.WARM_HORIZON)
        dense_env = dict(env, REPRO_DENSE_LOOP="1")
        figures = {}
        for artefact in ("table1",) + run.EVAL_ARTEFACTS:
            child = run.run_child(
                ["figure", artefact, "--scale", repr(run.EVAL_SCALE),
                 "--no-cache"], dense_env, tmp)
            if child.rc != 0:
                raise RuntimeError(child.stderr)
            key = artefact if artefact == "table1" else \
                "%s@%r" % (artefact, run.EVAL_SCALE)
            figures[key] = run.sha256(child.stdout)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump({"seed": run.DEFAULT_SEED, "points": points,
                   "figures": figures}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
