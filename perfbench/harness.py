"""Jobs, output digests, percentiles and the closed-loop pass runner."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np


@dataclass
class Result:
    """What one job produced: exit code and stdout for CLI jobs, the returned
    value for library calls, and the bytes of every file the job writes."""

    code: int | None = None
    stdout: str = ""
    value: Any = None
    files: dict[str, bytes] = field(default_factory=dict)
    seconds: float = 0.0
    error: str | None = None


@dataclass
class Job:
    """One CLI invocation (``argv``) or one library call (``call``).

    ``check`` inspects the first result and returns a description of what is
    wrong, or None. ``outputs`` are the files the job writes, relative to the
    working directory; they are part of the job's digest.
    """

    id: str
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    outputs: tuple[str, ...] = ()
    check: Callable[[Result], str | None] | None = None


def canon(value: Any) -> bytes:
    """Byte encoding of a returned value that is equal exactly when the
    values are: floats by repr, arrays by dtype, shape and raw bytes."""
    if isinstance(value, np.ndarray):
        return b"nd:" + value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [f.name.encode() + b"=" + canon(getattr(value, f.name)) for f in dataclasses.fields(value)]
        return b"dc:" + type(value).__name__.encode() + b"(" + b",".join(parts) + b")"
    if isinstance(value, dict):
        items = sorted((canon(k), canon(v)) for k, v in value.items())
        return b"{" + b",".join(k + b":" + v for k, v in items) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canon(v) for v in value) + b"]"
    if isinstance(value, (set, frozenset)):
        return b"set[" + b",".join(sorted(canon(v) for v in value)) + b"]"
    if isinstance(value, (float, np.floating)):
        return b"f:" + repr(float(value)).encode()
    if isinstance(value, Fraction):
        return b"q:" + str(value).encode()
    if isinstance(value, (bool, np.bool_)):
        return b"b:" + str(bool(value)).encode()
    if isinstance(value, (int, np.integer)):
        return b"i:" + str(int(value)).encode()
    return b"r:" + repr(value).encode()


def digest(result: Result) -> str:
    h = hashlib.sha256()
    h.update(f"code={result.code}\n".encode())
    h.update(result.stdout.encode())
    if result.value is not None:
        h.update(canon(result.value))
    for name in sorted(result.files):
        h.update(f"\nfile {name} {len(result.files[name])}\n".encode())
        h.update(result.files[name])
    return h.hexdigest()


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for job_id in sorted(digests):
        h.update(f"{job_id} {digests[job_id]}\n".encode())
    return h.hexdigest()


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: list[float]) -> float:
    ordered = sorted(values)
    k = len(ordered)
    mid = k // 2
    return ordered[mid] if k % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


# Host-speed calibration. On a shared host the core slows, by up to about
# 1.6x, whenever a neighbour is busy; that comes and goes within milliseconds
# and its share drifts over minutes, so raw times of the same code moved by a
# quarter between runs. A fixed calibration, run right before and after every
# job, measures how much slower than a reference host the host was at that
# moment, and each job's time is divided by that.
#
# The calibration has two halves, because contention slows cache-bound numpy
# code more than interpreter code and the package runs both: an interpreter
# loop, and a random gather from an array larger than the core's caches. Each
# counts equally; the reference host runs them in the times below, which are
# their medians inside a run on a 2-vCPU shared Xeon host.
CALIBRATION_LOOPS = 15_000
CALIBRATION_TABLE = np.arange(1 << 20, dtype=np.int64)  # 8 MB
CALIBRATION_INDEX = np.random.default_rng(0).integers(0, 1 << 20, 150_000)
CALIBRATION_OUT = np.empty_like(CALIBRATION_INDEX)  # so a call allocates nothing
LOOP_REFERENCE_S = 1.25e-3
GATHER_REFERENCE_S = 2e-3


def host_slowness() -> float:
    """How many times slower than the reference host the calibration ran
    just now. It never touches the package."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    t1 = time.perf_counter()
    np.take(CALIBRATION_TABLE, CALIBRATION_INDEX, out=CALIBRATION_OUT)
    t2 = time.perf_counter()
    return ((t1 - t0) / LOOP_REFERENCE_S + (t2 - t1) / GATHER_REFERENCE_S) / 2.0


def host_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` on the reference host, given the host's slowness right
    before and right after."""
    return seconds / ((before + after) / 2.0)


def run_job(job: Job, main: Callable[[list[str]], int], job_span: Callable[[], Any] | None = None) -> Result:
    """Run one job in this process and time it, loading included.

    ``main`` is looked up by the caller at call time so a traced run sees its
    wrapper; ``job_span``, when given, returns a context manager opened
    around the timed call. Output files from an earlier pass are removed first, so a job
    that stops writing them cannot pass on stale bytes.
    """
    for name in job.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    result = Result()
    out = io.StringIO()
    err = io.StringIO()
    span = job_span() if job_span is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                try:
                    result.code = main(job.argv)
                except SystemExit as exc:
                    result.code = exc.code if isinstance(exc.code, int) else 2
            else:
                result.value = job.call()
                result.code = 0
    except Exception:  # a job that raises is a failed job, not a dead run
        result.error = traceback.format_exc(limit=4)
    result.seconds = time.perf_counter() - t0
    result.stdout = out.getvalue()
    if result.error is None and result.code != 0:
        result.error = f"exit code {result.code}: {err.getvalue().strip()[-300:]}"
    for name in job.outputs:
        try:
            with open(name, "rb") as fh:
                result.files[name] = fh.read()
        except FileNotFoundError:
            if result.error is None:
                result.error = f"output {name} was not written"
    return result


@dataclass
class PassOutcome:
    seconds: list[float]
    slowness: list[float]  # host_slowness() around the jobs: one more than jobs
    digests: dict[str, str]
    failures: dict[str, str]
    stdout_bytes: int

    def host_seconds(self) -> list[float]:
        """Each job's time on the reference host."""
        c = self.slowness
        return [host_seconds(t, c[i], c[i + 1]) for i, t in enumerate(self.seconds)]


def run_pass(
    jobs: list[Job],
    main: Callable[[], Callable[[list[str]], int]],
    *,
    expected: dict[str, str] | None,
    check: bool,
    job_span: Callable[[], Any] | None = None,
) -> PassOutcome:
    """Run every job once, in order, each starting when the last returned.

    A job fails when it raises, exits non-zero, misses an output file, fails
    its check (``check=True``), or digests differently from ``expected``.
    Traced runs pass ``job_span`` so every span has a job as its root.
    The host calibration runs before each job and after the last, untimed.
    """
    seconds: list[float] = []
    slowness: list[float] = []
    digests: dict[str, str] = {}
    failures: dict[str, str] = {}
    stdout_bytes = 0
    for job in jobs:
        slowness.append(host_slowness())
        result = run_job(job, main(), job_span)
        seconds.append(result.seconds)
        stdout_bytes += len(result.stdout.encode())
        digests[job.id] = digest(result)
        problem = result.error
        if problem is None and check and job.check is not None:
            try:
                problem = job.check(result)
            except Exception:  # a malformed output can break the checker itself
                problem = "check raised: " + traceback.format_exc(limit=2)
        if problem is None and expected is not None and expected.get(job.id) != digests[job.id]:
            problem = "output digest differs from the reference"
        if problem is not None:
            failures[job.id] = problem
    slowness.append(host_slowness())
    return PassOutcome(seconds, slowness, digests, failures, stdout_bytes)
