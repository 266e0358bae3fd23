"""Host-time benchmark of the simulator: one workload, one process.

    python3 hostbench/run.py --workload md_step|incast|allreduce \
        --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with all instrumentation off; ``--trace 1`` is the separate
traced run that splits host time by layer.  Human-readable lines come
first; the last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, digest, extras) is written under ``.hostbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_simulator() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    simulator imported is the one in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no simulator source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"hostbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_simulator()
    from hostbench import harness
    from hostbench.provenance import provenance
    from hostbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")

    def make():
        return cls(args.seed)

    prov = provenance(ROOT)
    out_dir = ROOT / ".hostbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = harness.traced_run(make, args.seconds, spans_path=out_dir / f"{stem}.spans.json")
        units = harness.PER_LAYER_UNITS
    else:
        result = harness.timed_run(make, args.seconds)
        units = harness.END_TO_END_UNITS
    prov["scheduler"] = result.pop("scheduler")
    for err in result["errors"]:
        print(err, file=sys.stderr)

    print(f"hostbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(
        f"digest sha256={result['digest']} iterations={result['digest_iterations']}"
        + (f" untraced={result['digest_untraced']}" if args.trace else "")
    )
    extra = result["extra"]
    raw = extra.get("raw", {})
    for name, value in result["metrics"].items():
        line = f"metric {name} {value!r} {units[name]}"
        if name in raw:
            line += f" raw.{name} {raw[name]!r} {harness.RAW_UNITS[name]} (measured)"
        print(line)
    if "host_slowdown" in extra:
        print(f"extra host_slowdown {extra['host_slowdown']!r} (median reference-loop time over nominal)")
    for key in ("iter_ms_tail", "raw_iter_ms_tail"):
        tail = extra.get(key)
        if tail is not None:
            print(f"extra {key} {tail['value']!r} ms at p{tail['percentile']:.3f} of {tail['samples']} iterations")
    if not args.trace and "iter_ms_tail" not in extra:
        print(f"extra iter_ms_tail omitted: {result['iterations']} iterations, fewer than 11")
    print(f"extra failed_frac {extra['failed_frac']!r} ({result['failed']}/{result['attempted']})")

    record = {"args": vars(args), "provenance": prov, **result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
