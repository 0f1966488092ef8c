"""Synthetic stub job: executes the phases of one scheduled job.

The process backend starts this file once per worker slot as a stand-alone
fork server, ``python -I -S <path>/stub.py --serve``: one bare interpreter
that never imports the epsim package, which is why this module imports
nothing but ``json``, ``os``, ``sys`` and ``time``. By hand, the same way:
``echo '<spec>' | python -I -S src/epsim/stub.py --serve`` (``python -m
epsim.stub`` would import the package, and so this module, first).

The server reads one job spec per line on stdin, as JSON, with compute
durations already desk-scaled by the backend. For each spec it forks a child
that runs the phases and sends back through a pipe either
{"bytes_read": .., "bytes_written": ..} or {"error": ".."}. The server writes
two lines on stdout: the child's pid, as soon as it is forked, and then,
once it has reaped the child, that result with "exit" added (the child's exit
status, negative for a signal). So each job is its own process, which can be
killed alone, and costs a fork instead of an interpreter start. POSIX only.
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


def _say(msg) -> None:
    # straight to fd 1: no stdio buffer to flush before a fork or to copy into the child
    os.write(1, (json.dumps(msg) + "\n").encode())


def _child(spec: dict, pipe: tuple[int, int]) -> None:
    """Run one job in the forked child; the result goes down the pipe, then _exit."""
    code = 1
    try:
        os.close(pipe[0])
        null = os.open(os.devnull, os.O_RDWR)  # keep the zygote's protocol pipes out of the job
        os.dup2(null, 0)
        os.dup2(null, 1)
        try:
            bytes_read, bytes_written = run_phases(spec)
            result = {"bytes_read": bytes_read, "bytes_written": bytes_written}
            code = 0
        except Exception as exc:
            result = {"error": str(exc) if isinstance(exc, StubFailure) else repr(exc)}
        os.write(pipe[1], json.dumps(result).encode())
    finally:
        os._exit(code)


def serve() -> None:
    """Fork one child per spec line on stdin; report its pid, then its result, on stdout."""
    for line in sys.stdin.buffer:
        spec = json.loads(line)
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _child(spec, (r, w))
        os.close(w)
        _say(pid)
        with open(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        try:
            result = json.loads(data)
        except ValueError:  # killed before it wrote
            result = {}
        result["exit"] = os.waitstatus_to_exitcode(status)
        _say(result)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--serve"]:
        print("usage: python -I -S stub.py --serve  (one JSON spec per line on stdin)", file=sys.stderr)
        return 2
    serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
