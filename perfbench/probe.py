"""Fresh-interpreter probes that the benchmark times from outside.

    python3 perfbench/probe.py setup <workload> <repro CLI argv...>
        Import the CLI, parse the workload's command line and build what
        that command builds before it reads its first input (the obs
        bundle and alert rules, where the command has them), then print
        ``ready``.  The caller times spawn-to-ready as ``setup_s``.

    python3 perfbench/probe.py cli <repro CLI argv...>
        Run ``python -m repro <argv>`` in this process, as ``-m`` runs
        it, between two :func:`host_slowdown` readings on this process's
        vCPU, and exit with its exit code.  The last stderr line is one
        JSON object: the two readings and the seconds they took.

    python3 perfbench/probe.py census
        Print one JSON line: the seconds taken by ``import repro.core``
        followed by ``import repro.cli``, and the sorted ``repro.*``
        modules loaded after each of the two imports.

Run with the repository's ``src`` directory on ``PYTHONPATH``.
``run.py`` imports :func:`build_obs` and :func:`host_slowdown` from
here, so probes and warm passes build the same bundle and read the host
speed the same way.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Any, Dict, List

#: The host-speed kernel's time (:func:`host_slowdown`) on the host the
#: benchmark was tuned on, a quiet 2-vCPU x86-64 VM with CPython 3.
#: Adjusted timings are reported at that host's speed.
REFERENCE_KERNEL_S = 0.70e-3


def host_slowdown() -> float:
    """How much slower than the reference host this thread runs
    interpreter-bound work right now: the fastest of three runs of a
    fixed pure-Python kernel (dict, float and loop work, like the
    detector's per-period step; ~0.7 ms), over ``REFERENCE_KERNEL_S``."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table: Dict[int, float] = {}
        total = 0.0
        for i in range(4_000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            total += table[key] / (key + 1)
        best = min(best, perf_counter() - t0)
    return best / REFERENCE_KERNEL_S


def build_obs(args: argparse.Namespace) -> Any:
    """The obs bundle ``repro <command>`` builds from its parsed *args*
    before it reads input, as ``repro.cli`` builds it for the three
    benchmarked commands; None for ``detect`` without ``--metrics-out``
    or ``--serve``, which builds none."""
    if args.command == "observe":
        from repro.obs import enabled_instrumentation
        from repro.obs.alerts import builtin_rules

        rules = builtin_rules(threshold=args.threshold) if args.alerts else None
        return enabled_instrumentation(
            events_path=args.events_out, alert_rules=rules
        )
    if args.command == "soak":
        from repro.obs import enabled_instrumentation

        return enabled_instrumentation(
            events_path=args.events_out, tsdb_retention=args.tsdb_retention
        )
    return None


def _repro_modules() -> List[str]:
    return sorted(
        name for name in sys.modules if name == "repro" or name.startswith("repro.")
    )


def census() -> None:
    t0 = perf_counter()
    import repro.core  # noqa: F401

    core = _repro_modules()
    import repro.cli  # noqa: F401

    elapsed = perf_counter() - t0
    print(json.dumps({"import_s": elapsed, "core": core, "cli": _repro_modules()}))


def setup(workload: str, argv: List[str]) -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    obs = build_obs(args)
    if workload == "capture-unc":
        # `detect --pcap-out` builds no obs bundle; its lazy imports are
        # the streaming and fastpath pipelines.
        from repro.experiments.streaming import detect_from_pcaps  # noqa: F401
        from repro.fastpath.pipeline import detect_from_pcaps_fast  # noqa: F401
    elif workload == "longrun-alerts":
        from repro.core.syndog import SynDog

        SynDog(obs=obs)
    elif workload == "soak-sharded":
        from repro.experiments.soak import run_soak_campaign  # noqa: F401
        from repro.parallel import run_plan  # noqa: F401
    else:
        raise SystemExit(f"probe: unknown workload {workload!r}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def cli(argv: List[str]) -> None:
    import runpy

    t0 = perf_counter()
    before = host_slowdown()
    spent = perf_counter() - t0
    sys.argv = [sys.argv[0], *argv]
    code: Any = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code
    t0 = perf_counter()
    after = host_slowdown()
    spent += perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.write(
        json.dumps({"slowdown": [before, after], "calibration_s": spent}) + "\n"
    )
    sys.exit(code)


if __name__ == "__main__":
    if sys.argv[1:2] == ["census"]:
        census()
    elif sys.argv[1:2] == ["setup"] and len(sys.argv) > 3:
        setup(sys.argv[2], sys.argv[3:])
    elif sys.argv[1:2] == ["cli"]:
        cli(sys.argv[2:])
    else:
        raise SystemExit(__doc__)
