"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at its tiny sizes through run.py, untraced and
   traced, and checks the result line: correct, nothing failed, exactly
   the end-to-end (or per-layer) metrics.
2. Checks that each oracle accepts the true result of every request kind
   and rejects a deliberately corrupted one (a shifted eigenvalue, a
   flipped surd sign, a float where an exact value belongs, ...), and that
   a request that raises is counted as failed.
3. Checks that the untraced path installs no wrapper and that the tracer
   restores every original.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_runs() -> None:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            ok = proc.returncode == 0
            if ok:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                want = ([m for m, _ in run.END_TO_END] if not trace
                        else [m for m, _, _ in run.PER_LAYER])
                ok = (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
                      and sorted(res["metrics"]) == sorted(want))
            else:
                print(proc.stderr[-2000:])
            expect(ok, f"{name} --trace {trace}: tiny run is correct, metrics complete")


def check_oracles() -> None:
    import worker
    from oracles import CHECKS
    from workloads import WORKLOADS

    work = os.path.join(HERE, "_work", f"smoke-{os.getpid()}")
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(3, os.path.join(work, name), tiny=True)
            wl.warm_up()
            done, _, _ = worker.timed_loop(wl, 2, 60.0)
            check = CHECKS[name]
            seen = set()
            for req, output, error, _lat in done:
                expect(error is None and check(wl, req, output) is None,
                       f"{name}/{req.band}: oracle accepts the true result")
                if req.kind in seen:
                    continue
                seen.add(req.kind)
                for what, bad in corruptions(name, req, output):
                    verdict = _verdict(check, wl, req, bad)
                    expect(verdict is not None, f"{name}/{req.kind}: oracle rejects {what}")

            if wl.FIXED_BANDS:
                repeats = [d for d in done if d[0].band in wl.FIXED_BANDS]
                last = repeats[-1]
                req = last[0]
                bad = next(b for _, b in corruptions(name, req, last[1]))
                tampered = [d if d is not last else (req, bad, None, d[3]) for d in done]
                failures = worker.check_all(name, wl, tampered)
                expect(len(failures) == 1 and "differs" in failures[0],
                       f"{name}: a repeat whose output differs from its first run fails")

            class Raising(cls):
                def execute(self, req):
                    raise RuntimeError("injected")

            raising = Raising(3, os.path.join(work, name + "-raise"), tiny=True)
            done, _, _ = worker.timed_loop(raising, 1, 60.0)
            failures = worker.check_all(name, raising, done)
            expect(len(failures) == len(done) > 0,
                   f"{name}: a request that raises counts as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _verdict(check, wl, req, bad):
    try:
        return check(wl, req, bad)
    except Exception as exc:  # a malformed result may fail inside the oracle
        return repr(exc)


def corruptions(name, req, output):
    """(description, corrupted output) pairs for one request."""
    if name == "spectrum":
        rc, path = output
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        value, mult = lines[1].split(",")
        shifted = lines[:1] + [f"{float(value) + 1e-6!r},{mult}"] + lines[2:]
        yield "one eigenvalue shifted by 1e-6", _rewrite(path, "shifted", shifted)
        if len(lines) > 2:
            v2, m2 = lines[2].split(",")
            merged = lines[:1] + [f"{value},{int(mult) + int(m2)}"] + lines[3:]
            yield "two levels merged", _rewrite(path, "merged", merged)
        yield "a nonzero exit code", (2, path)
    elif name == "coupling":
        if req.kind == "coef":
            yield "a flipped sign", -output if output else output + 1
            yield "the value as a float", _as_float(output)
        elif req.kind == "table":
            rows = list(output)
            j, m, m1, m2, c = rows[0]
            yield "one flipped table entry", [(j, m, m1, m2, -c)] + rows[1:]
            yield "one float table entry", [(j, m, m1, m2, _as_float(c))] + rows[1:]
        else:
            obj = json.loads(output)
            obj["terms"][0][2] = -obj["terms"][0][2]
            yield "one flipped surd sign", json.dumps(obj, sort_keys=True, separators=(",", ":"))
    elif req.kind == "kron":
        rc, path = output
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["terms"][0][2] = -obj["terms"][0][2]
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        yield "one flipped sign in the JSON", (rc, _write(path, "flipped", text))
        obj["terms"][0][2] = -obj["terms"][0][2]
        spaced = json.dumps(obj, sort_keys=True) + "\n"
        yield "a dump that is not byte-stable", (rc, _write(path, "spaced", spaced))
    elif req.kind == "conjugate":
        from kronx.hubbard import XSum

        terms = output.term_map()
        key = next(iter(terms))
        terms[key] = -terms[key]
        yield "one negated coefficient", XSum(output.order, terms)
        terms[key] = _as_float(-terms[key])
        yield "the same value as a float", XSum(output.order, terms)
    else:
        rc, text = output
        yield "a large reported error", (rc, re.sub(r"error \S+", "error 1.000e-03", text))
        yield "a missing stage", (rc, "\n".join(text.splitlines()[1:]))


def _as_float(c) -> float:
    if hasattr(c, "radicand"):
        return c.sign * float(c.radicand) ** 0.5
    return float(c)


def _rewrite(path, tag, lines):
    return (0, _write(path, tag, "\n".join(lines) + "\n"))


def _write(path, tag, text):
    bad = f"{path}.{tag}"
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(text)
    return bad


def check_wrappers() -> None:
    import kronx.hubbard as hub
    import kronx.models as models
    from tracing import Tracer

    originals = (hub.xsum_mul, models.xsum_mul, hub.XSum.__init__)
    expect(not any(hasattr(f, "__wrapped__") for f in originals),
           "untraced: no kronx function is wrapped")
    tracer = Tracer()
    tracer.install()
    expect(hasattr(models.xsum_mul, "__wrapped__") and models.xsum_mul is hub.xsum_mul,
           "traced: xsum_mul is wrapped in every namespace that binds it")
    tracer.uninstall()
    expect((hub.xsum_mul, models.xsum_mul, hub.XSum.__init__) == originals,
           "uninstall restores every original")


def main() -> int:
    check_runs()
    check_oracles()
    check_wrappers()
    print(f"{len(FAILURES)} failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
