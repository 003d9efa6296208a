"""One timed pass, run in a fresh interpreter.

    python3 pass_child.py SPEC.json RESULT.json

SPEC names the source directory to import susmine from, the argument
lists of the pass's ``assess`` calls and whether to trace. Each call goes
through ``susmine.cli.main`` in this process, one after another. RESULT
receives the pass wall time, per-call latency and exit code, the peak
resident memory of this process and, when traced, the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import susmine.cli

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    latencies, codes, errors = [], [], []
    start = time.perf_counter()
    for argv in spec["calls"]:
        call_start = time.perf_counter()
        try:
            code = susmine.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # one crashing call must not hide the others
            code = None
            errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - call_start)
        codes.append(code)
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "latencies_s": latencies,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result.update(names=recorder.names, spans=recorder.spans, counts=recorder.counts)
    return result


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
