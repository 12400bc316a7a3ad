"""Run one ``repro`` CLI command with the layer spans installed.

    python3 perfbench/cli_child.py SUMMARY.json <repro arguments...>

Behaves like ``python -m repro <arguments>`` (same output, same exit
code) and writes the spans summary, plus this process's ``repro.cli``
import time and command time, to ``SUMMARY.json``.
"""

import json
import sys
import time

import spans as spans_mod


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start
    spans = spans_mod.Spans()
    spans_mod.install(spans)
    start = time.perf_counter()
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        summary = spans.summary()
        summary["cli"] = {"import_s": import_s,
                          "command_s": time.perf_counter() - start}
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
