"""Operations, their checks, and the timed execution of one round.

An operation is one call into a public curvemax function with inputs fixed
before the run starts.  Each operation carries named checks; a check reads
the output (and, through ``deps``, outputs of earlier operations in the same
round) and returns None when it holds or a message when it does not.  An
operation fails when its call raises or any of its checks fails.

Only the call is timed, by the process's CPU clock: on a shared host a
call's wall time also counts the time other tenants hold the processor,
while its CPU time does not (README "Steadiness").  Checks run after the
clock stops, and their
verdicts are memoized by a digest of everything they read: a round that
reproduces bit-identical outputs gets the verdicts already computed for
them, so costly reference computations run once per process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable, NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    fn: Callable[[Any, dict], str | None]


@dataclasses.dataclass(frozen=True)
class Op:
    key: str                       # unique within the workload
    kind: str                      # the public function called, e.g. "g_profile"
    call: Callable[[], Any]
    checks: tuple = ()
    deps: tuple = ()               # keys of earlier ops whose outputs checks read


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, float, complex, str, np.generic)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__}[{len(obj)}]".encode())
        for v in obj:
            _feed(h, v)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> bytes:
    """Content hash of an output built from arrays, scalars and containers."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


@dataclasses.dataclass
class RoundResult:
    times: list            # seconds, for every call, raised or not
    attempted: int = 0
    failed: int = 0        # raised or failed a check
    check_failed: int = 0  # returned an output that failed a check
    messages: list = dataclasses.field(default_factory=list)
    kept: dict = dataclasses.field(default_factory=dict)


def run_round(ops, verdicts: dict, corrupt=None, keep=(), after=None) -> RoundResult:
    """Call every op once, in order, timing only the call.

    ``verdicts`` maps digests to check messages and persists across rounds.
    ``corrupt(op, out)``, when given, replaces an output before it is
    checked; the self-test uses it to show that a wrong output is counted.
    Outputs are dropped once checked unless a later op reads them or their
    key is in ``keep`` (returned in ``kept``), so large outputs do not pile
    up in the peak resident set.  ``after(seconds)``, when given, is
    called after every call with its time, outside the clock.
    """
    res = RoundResult(times=[])
    needed = set(keep).union(*(op.deps for op in ops))
    outputs, sums = {}, {}
    for op in ops:
        res.attempted += 1
        t0 = time.process_time()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            # its time still counts, so failing fast does not read as a speed-up
            res.times.append(time.process_time() - t0)
            if after is not None:
                after(res.times[-1])
            res.failed += 1
            res.messages.append(f"{op.key}: raised {type(exc).__name__}: {exc}")
            continue
        res.times.append(time.process_time() - t0)
        if after is not None:
            after(res.times[-1])
        if corrupt is not None:
            out = corrupt(op, out)
        outputs[op.key] = out
        sums[op.key] = digest(out)
        missing = [d for d in op.deps if d not in outputs]
        if missing:
            # the output cannot be judged, so the op fails without a verdict
            res.failed += 1
            res.messages.append(f"{op.key}: needs the output of {', '.join(missing)}")
            continue
        key = (op.key, sums[op.key]) + tuple(sums[d] for d in op.deps)
        if key not in verdicts:
            verdicts[key] = [f"{c.name}: {msg}" for c in op.checks
                             if (msg := _judge(c, out, outputs)) is not None]
        if verdicts[key]:
            res.failed += 1
            res.check_failed += 1
            res.messages.extend(f"{op.key}: {p}" for p in verdicts[key])
        if op.key not in needed:
            del outputs[op.key]
    res.kept = {k: outputs[k] for k in keep if k in outputs}
    return res


def _judge(check: Check, out, outputs: dict) -> str | None:
    try:
        return check.fn(out, outputs)
    except Exception as exc:  # a malformed output can break a check's reading
        return f"check raised {type(exc).__name__}: {exc}"
