"""Print one SHA-256 digest per deterministic CLI artifact.

Runs each invocation below as ``python -m rieszbounds.cli`` in a fresh
process, once under each of ``PYTHONHASHSEED`` = 0 and 1, and prints
``sha256  name`` for its standard output, one line per artifact:
``verify`` (JSON at full precision for seeds 0, 1 and 7, and text),
tables 1-3 and figures 1-3 at both precisions, ``bounds --list``,
``bounds --bessel-zeros`` (40 zeros of orders 0, 1/2 and 7) at both
precisions, the spectrum of the unit square and the unit 3-ball in text,
CSV and JSON, of the unit disk and a 4-ball of radius 1/2 in text, and
on the square and the 3-ball, at full precision, ``riesz --z`` at sigma =
1/2, 1 and 5/2, ``riesz --means`` at a k inside a run of equal
eigenvalues, and ``riesz --legendre``; then the spectra of the unit cube
and the 1 x 2 x 3 box below 3000 in text, and ``bounds --bessel-zeros``
of the consecutive orders 0, 1, 2 and of 1/2, 3/2, 5/2 at full
precision.  The child
processes import ``rieszbounds`` the way this process would, so
``PYTHONPATH`` selects the tree under test.  Two trees give
byte-identical output exactly when their digest lists are equal:

    PYTHONPATH=src python3 benchmarks/output_digests.py > head.txt
    PYTHONPATH=../base/src python3 benchmarks/output_digests.py > base.txt
    diff base.txt head.txt

Exit status 1 if any invocation exits nonzero, or if an artifact's
output differs between the two hash seeds; 2, before any invocation, if
a child process cannot import ``rieszbounds`` (no ``PYTHONPATH`` and no
install).
"""

import hashlib
import os
import subprocess
import sys

BOX = ["--box", "1", "1", "--lambda-max", "2000"]
BALL = ["--ball", "--dim", "3", "--radius", "1", "--lambda-max", "2000"]
#: further ball spectra, written as text only: the unit disk and a 4-ball
#: of radius 1/2 (other orders and multiplicities, and r^2 != 1)
BALLS_TEXT = (("disk", ["--ball", "--dim", "2", "--lambda-max", "5000"]),
              ("ball4-r0.5", ["--ball", "--dim", "4", "--radius", "0.5",
                              "--lambda-max", "2000"]))
#: 3-D boxes, written as text below 3000: the unit cube and 1 x 2 x 3
BOXES_TEXT = (("cube", ["1", "1", "1"]), ("box123", ["1", "2", "3"]))
#: every invocation runs under each hash seed; its output must not change
HASH_SEEDS = ("0", "1")
ZEROS = ["bounds", "--bessel-zeros", "0,0.5,7", "--zero-count", "40"]
#: per spectrum: z values (the middle one a repeated eigenvalue, which
#: R_sigma leaves out with its whole run) and a k inside a run of equal
#: eigenvalues (entries 57-60 of the square, 2554-2610 of the 3-ball)
RIESZ = (("box", BOX, ["100", "838.9163740925954", "1999"], 58),
         ("ball3", BALL, ["100", "1190.6837456015562", "1999"], 2581))


def _invocations():
    for seed in (0, 1, 7):
        yield (f"verify-json-seed{seed}",
               ["verify", "--format", "json", "--full-precision",
                "--seed", str(seed)])
    yield "verify-text", ["verify"]
    for kind, ids in (("table", ("table1", "table2", "table3")),
                      ("figure", ("fig1", "fig2", "fig3"))):
        for item in ids:
            yield item, [kind, item]
            yield f"{item}-full", [kind, item, "--full-precision"]
    yield "bounds-list", ["bounds", "--list"]
    yield "bounds-bessel-zeros", ZEROS
    yield "bounds-bessel-zeros-full", [*ZEROS, "--full-precision"]
    for name, domain in (("box", BOX), ("ball3", BALL)):
        for fmt in ("text", "csv", "json"):
            yield f"spectrum-{name}-{fmt}", ["spectrum", *domain,
                                             "--format", fmt]
    for name, domain in BALLS_TEXT:
        yield f"spectrum-{name}-text", ["spectrum", *domain]
    for name, domain, zs, k in RIESZ:
        riesz = ["riesz", *domain, "--full-precision"]
        for sigma in ("0.5", "1", "2.5"):
            yield (f"riesz-{name}-z-sigma{sigma}",
                   [*riesz, "--sigma", sigma, "--z", *zs])
        yield f"riesz-{name}-means", [*riesz, "--means", str(k)]
        yield f"riesz-{name}-legendre", [*riesz, "--legendre", "0.5", "10",
                                         "100"]
    for name, sides in BOXES_TEXT:
        yield f"spectrum-{name}-text", ["spectrum", "--box", *sides,
                                        "--lambda-max", "3000"]
    # consecutive orders: each order's zeros are bracketed by the cached
    # zeros of the order below and found in one batch, for integer and
    # half-integer orders
    yield "bounds-bessel-zeros-012-full", [
        "bounds", "--bessel-zeros", "0,1,2", "--zero-count", "40",
        "--full-precision"]
    yield "bounds-bessel-zeros-half-full", [
        "bounds", "--bessel-zeros", "0.5,1.5,2.5", "--zero-count", "40",
        "--full-precision"]


def main() -> int:
    if subprocess.run([sys.executable, "-c", "import rieszbounds.cli"],
                      capture_output=True).returncode:
        print("output_digests: python cannot import rieszbounds; run it as "
              "PYTHONPATH=src python3 benchmarks/output_digests.py, with the "
              "src directory of the tree under test, or install the "
              "package", file=sys.stderr)
        return 2
    status = 0
    for name, argv in _invocations():
        outputs = set()
        for seed in HASH_SEEDS:
            run = subprocess.run(
                [sys.executable, "-m", "rieszbounds.cli", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed})
            if run.returncode != 0:
                print(f"{name}: exit {run.returncode} under PYTHONHASHSEED="
                      f"{seed}: {run.stderr.decode(errors='replace').strip()}",
                      file=sys.stderr)
                status = 1
            outputs.add(run.stdout)
        if len(outputs) > 1:
            print(f"{name}: output differs between PYTHONHASHSEED="
                  f"{' and '.join(HASH_SEEDS)}", file=sys.stderr)
            status = 1
        print(f"{hashlib.sha256(run.stdout).hexdigest()}  {name}",
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
