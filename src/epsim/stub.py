"""Synthetic stub job: executes the phases of one scheduled job.

The process backend launches this file as a stand-alone script,
``python -I -S <path>/stub.py <specfile.json>``, so a job's start-up costs
one bare interpreter and never imports the epsim package. That is why this
module imports nothing but ``json``, ``os``, ``sys`` and ``time``.
``python -m epsim.stub <specfile.json>`` runs the same code by hand.

The spec file carries the job's phases with compute durations already
desk-scaled by the backend. Prints a one-line JSON result
({"bytes_read": .., "bytes_written": ..}) on stdout and exits non-zero on
failure.
"""

from __future__ import annotations

import json
import os
import sys
import time

CHUNK = 1 << 20


class StubFailure(Exception):
    pass


def _busy_spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    x = 1.0
    while time.perf_counter() < deadline:
        x = x * 1.0000001 + 1e-9  # keep the core busy, not asleep


def _write_file(path: str, nbytes: int) -> int:
    written = 0
    with open(path, "wb") as fh:
        while written < nbytes:
            chunk = min(CHUNK, nbytes - written)
            fh.write(b"\x5a" * chunk)
            written += chunk
        fh.flush()
    return written


def _read_file(path: str, nbytes: int) -> int:
    total = 0
    with open(path, "rb") as fh:
        while True:
            data = fh.read(CHUNK)
            if not data:
                break
            total += len(data)
    if total != nbytes:
        raise StubFailure(f"read {total} bytes from {path}, expected {nbytes}")
    return total


def run_phases(spec: dict) -> tuple[int, int]:
    """Execute the phases in order; returns (bytes_read, bytes_written)."""
    if spec.get("metadata", {}).get("fail"):
        raise StubFailure(f"job {spec.get('name')} forced to fail")
    workdir = spec["workdir"]
    job_id = int(spec["job_id"])
    bytes_read = 0
    bytes_written = 0
    for phase in spec["phases"]:
        kind = phase["kind"]
        if kind == "compute":
            _busy_spin(float(phase.get("duration_s", 0.0)))
        elif kind == "io_write":
            out = os.path.join(workdir, f"j{job_id:05d}.out")
            bytes_written += _write_file(out, int(phase.get("bytes", 0)))
        elif kind == "io_read":
            n = int(phase.get("bytes", 0))
            src = os.path.join(workdir, f"j{job_id:05d}.in")
            _write_file(src, n)  # source data is synthesized, only the read is the workload
            bytes_read += _read_file(src, n)
        elif kind == "mpi_exchange":
            print(
                f"mpi_exchange: {phase.get('bytes', 0)} bytes across "
                f"{phase.get('ranks', 1)} ranks (logged, not performed)",
                file=sys.stderr,
            )
        else:
            raise StubFailure(f"unknown phase kind {kind!r}")
    return bytes_read, bytes_written


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m epsim.stub <specfile.json>", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        bytes_read, bytes_written = run_phases(spec)
    except StubFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps({"bytes_read": bytes_read, "bytes_written": bytes_written}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
